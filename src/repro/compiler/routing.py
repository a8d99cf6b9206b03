"""SWAP-insertion routing over the mixed-radix slot graph (Section 4.2).

The router tracks where every logical qubit currently lives and walks the
circuit in program order.  Two-qubit gates whose operands are co-located or
adjacent are emitted directly as the appropriate internal / partial /
qubit-qubit operation; otherwise the cheaper of "move the control toward the
target" and "move the target toward the control" is taken, inserting SWAP
operations along the cheapest slot path under the Eq. 4 cost model.

Constraints from the paper are respected: unit modes are fixed at mapping
time (no new ququart is ever encoded during routing), and movement only uses
slots that are enabled under those modes.
"""

from __future__ import annotations

from repro.arch.device import Device
from repro.arch.interaction_graph import Slot
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.costs import CostModel
from repro.compiler.mapping import Placement
from repro.compiler.result import PhysicalOp


class RoutingError(RuntimeError):
    """Raised when a gate cannot be routed on the device."""


class Router:
    """Route a logical circuit given an initial placement and fixed unit modes."""

    def __init__(
        self,
        device: Device,
        cost_model: CostModel,
        placement: Placement,
        reencode_after_measure: bool = True,
    ) -> None:
        self.device = device
        self.costs = cost_model
        self.reencode_after_measure = reencode_after_measure
        self.slot_of: dict[int, Slot] = dict(placement)
        self.occupant: dict[Slot, int] = {slot: qubit for qubit, slot in placement.items()}
        if len(self.occupant) != len(self.slot_of):
            raise ValueError("two logical qubits share a slot in the initial placement")
        for slot in self.slot_of.values():
            if not cost_model.is_enabled(slot):
                raise ValueError(f"initial placement uses disabled slot {slot}")
        self.ops: list[PhysicalOp] = []

    # ------------------------------------------------------------------
    # op emission helpers
    # ------------------------------------------------------------------
    def _emit(
        self,
        gate: str,
        units: tuple[int, ...],
        logical_qubits: tuple[int, ...],
        is_communication: bool = False,
        moves: dict[int, Slot] | None = None,
        source_gate: int = -1,
        slots: tuple[Slot, ...] = (),
        cbits: tuple[int, ...] = (),
        condition: tuple[tuple[int, ...], int] | None = None,
    ) -> PhysicalOp:
        op = PhysicalOp(
            gate=gate,
            units=units,
            logical_qubits=logical_qubits,
            duration_ns=self.device.durations.duration(gate),
            fidelity=self.device.durations.fidelity(gate),
            is_communication=is_communication,
            moves=dict(moves or {}),
            source_gate=source_gate,
            slots=slots,
            cbits=cbits,
            condition=condition,
        )
        self.ops.append(op)
        return op

    def _apply_swap(self, slot_a: Slot, slot_b: Slot, source_gate: int) -> None:
        """Swap the contents of two adjacent slots, emitting the physical op."""
        qubit_a = self.occupant.get(slot_a)
        qubit_b = self.occupant.get(slot_b)
        gate = self.costs.swap_gate(slot_a, slot_b)
        moves: dict[int, Slot] = {}
        involved: list[int] = []
        if qubit_a is not None:
            moves[qubit_a] = slot_b
            involved.append(qubit_a)
        if qubit_b is not None:
            moves[qubit_b] = slot_a
            involved.append(qubit_b)
        self._emit(
            gate,
            (slot_a[0], slot_b[0]) if slot_a[0] != slot_b[0] else (slot_a[0],),
            tuple(involved),
            is_communication=True,
            moves=moves,
            source_gate=source_gate,
            slots=(slot_a, slot_b),
        )
        # Update the tracking structures.
        if qubit_a is not None:
            self.slot_of[qubit_a] = slot_b
        if qubit_b is not None:
            self.slot_of[qubit_b] = slot_a
        if qubit_a is not None:
            self.occupant[slot_b] = qubit_a
        else:
            self.occupant.pop(slot_b, None)
        if qubit_b is not None:
            self.occupant[slot_a] = qubit_b
        else:
            self.occupant.pop(slot_a, None)

    # ------------------------------------------------------------------
    # gate handling
    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit) -> tuple[list[PhysicalOp], Placement]:
        """Route the whole circuit; returns the op list and final placement."""
        for index, gate in enumerate(circuit):
            if gate.name == "barrier":
                continue
            if gate.name == "measure":
                slot = self.slot_of[gate.qubits[0]]
                self._emit("measure", (slot[0],), gate.qubits, source_gate=index,
                           slots=(slot,), cbits=gate.cbits)
                continue
            if gate.name in ("measure_mid", "reset"):
                self._route_mid_measure(gate, index)
                continue
            if gate.num_qubits == 1:
                self._route_single(gate.qubits[0], index, condition=gate.condition)
            elif gate.num_qubits == 2:
                self._route_two_qubit(gate.name, gate.qubits[0], gate.qubits[1], index,
                                      condition=gate.condition)
            else:
                raise RoutingError(
                    f"gate {gate.name} on {gate.num_qubits} qubits must be decomposed first"
                )
        return self.ops, dict(self.slot_of)

    def _route_mid_measure(self, gate, source_gate: int) -> None:
        """Emit a mid-circuit measurement/reset, decoding its ququart first.

        Measuring one encoded qubit of a ququart destroys its partner, so
        the paper's decode-before-measure rule applies: the pair is decoded
        (partner ejected to an adjacent free slot), the single qubit is
        measured, and — when ``reencode_after_measure`` — the pair is
        re-encoded immediately afterwards so later gates see the original
        layout.  Bare qubits are measured in place with no extra cost.
        """
        qubit = gate.qubits[0]
        slot = self.slot_of[qubit]
        unit = slot[0]
        partner_slot = (unit, 1 - slot[1])
        partner = self.occupant.get(partner_slot)
        needs_decode = self.costs.is_enabled((unit, 1)) and partner is not None
        if needs_decode:
            ancilla = self._find_ancilla(unit, source_gate)
            if self.reencode_after_measure:
                # Transient decode: the pair is re-encoded straight after the
                # measurement, so the logical layout is unchanged (no moves).
                self._emit("dec", (unit, ancilla[0]), (qubit, partner),
                           is_communication=True, source_gate=source_gate,
                           slots=(partner_slot, ancilla))
                self._emit(gate.name, (unit,), (qubit,), source_gate=source_gate,
                           slots=(slot,), cbits=gate.cbits, condition=gate.condition)
                self._emit("enc", (ancilla[0], unit), (qubit, partner),
                           is_communication=True, source_gate=source_gate,
                           slots=(ancilla, partner_slot))
                return
            # Permanent decode: the partner stays on the ancilla unit.
            self._emit("dec", (unit, ancilla[0]), (qubit, partner),
                       is_communication=True, moves={partner: ancilla},
                       source_gate=source_gate, slots=(partner_slot, ancilla))
            self.slot_of[partner] = ancilla
            self.occupant[ancilla] = partner
            self.occupant.pop(partner_slot, None)
        self._emit(gate.name, (unit,), (qubit,), source_gate=source_gate,
                   slots=(slot,), cbits=gate.cbits, condition=gate.condition)

    def _find_ancilla(self, unit: int, source_gate: int) -> Slot:
        """Free enabled slot on a neighbouring unit, preferring bare units.

        When every adjacent slot is occupied, the nearest free slot on the
        device is shifted next to ``unit`` by a chain of routing SWAPs
        (walking the hole inwards), so decode-before-measure works wherever
        the register has *any* spare capacity.
        """
        candidates: list[tuple[int, Slot]] = []
        for slot in self._adjacent_slots(unit):
            if slot in self.occupant:
                continue
            candidates.append((1 if self.costs.is_enabled((slot[0], 1)) else 0, slot))
        if candidates:
            return min(candidates)[1]
        return self._vacate_adjacent_slot(unit, source_gate)

    def _adjacent_slots(self, unit: int) -> list[Slot]:
        """Enabled slots on the units neighbouring ``unit``, in sorted order."""
        slots: list[Slot] = []
        for neighbor in sorted(self.device.topology.neighbors(unit)):
            is_ququart = self.costs.is_enabled((neighbor, 1))
            for position in (0, 1) if is_ququart else (0,):
                slots.append((neighbor, position))
        return slots

    def _vacate_adjacent_slot(self, unit: int, source_gate: int) -> Slot:
        """Free an adjacent slot by walking the cheapest hole next to ``unit``.

        Every swap displaces a bystander qubit one step along the path; the
        measured unit itself is never touched, so the pair being decoded
        stays in place.  Runs unconditionally (like all routing movement) to
        keep the layout branch-free.
        """
        free = [
            slot for slot in self.costs.enabled_slots()
            if slot not in self.occupant and slot[0] != unit
        ]
        best: tuple[float, list[Slot]] | None = None
        for start in self._adjacent_slots(unit):
            for hole in free:
                cost = self.costs.swap_distance(start, hole)
                if cost == float("inf") or (best is not None and not cost < best[0]):
                    continue
                path = self.costs.shortest_slot_path(start, hole)
                if any(step[0] == unit for step in path):
                    continue
                best = (cost, path)
        if best is None:
            raise RoutingError(
                f"mid-circuit measurement on unit {unit} needs a free slot to "
                "decode its ququart partner into, but the register is full"
            )
        path = best[1]
        for slot_a, slot_b in zip(reversed(path[:-1]), reversed(path[1:])):
            self._apply_swap(slot_a, slot_b, source_gate)
        return path[0]

    def _route_single(
        self,
        qubit: int,
        source_gate: int,
        condition: tuple[tuple[int, ...], int] | None = None,
    ) -> None:
        slot = self.slot_of[qubit]
        gate = self.costs.single_qubit_gate(slot)
        self._emit(gate, (slot[0],), (qubit,), source_gate=source_gate, slots=(slot,),
                   condition=condition)

    def _route_two_qubit(
        self,
        name: str,
        control: int,
        target: int,
        source_gate: int,
        condition: tuple[tuple[int, ...], int] | None = None,
    ) -> None:
        want_swap = name == "swap"
        # Routing SWAPs run unconditionally even for conditioned gates: the
        # movement must happen on every shot so the layout stays branch-free;
        # only the final interaction carries the classical control.
        self._make_adjacent(control, target, source_gate)
        slot_c = self.slot_of[control]
        slot_t = self.slot_of[target]
        units = (slot_c[0],) if slot_c[0] == slot_t[0] else (slot_c[0], slot_t[0])
        if want_swap:
            # A source-level SWAP exchanges the *states* of the two logical
            # qubits in place: the physical SWAP gate is applied but the
            # logical-to-slot assignment does not change (unlike routing
            # SWAPs, which relocate qubits).
            gate = self.costs.swap_gate(slot_c, slot_t)
            self._emit(gate, units, (control, target), source_gate=source_gate,
                       slots=(slot_c, slot_t), condition=condition)
            return
        gate = self.costs.cx_gate(slot_c, slot_t)
        self._emit(gate, units, (control, target), source_gate=source_gate,
                   slots=(slot_c, slot_t), condition=condition)

    # ------------------------------------------------------------------
    # movement
    # ------------------------------------------------------------------
    def _make_adjacent(self, qubit_a: int, qubit_b: int, source_gate: int) -> None:
        """Insert SWAPs until the two qubits can interact with one gate."""
        slot_a = self.slot_of[qubit_a]
        slot_b = self.slot_of[qubit_b]
        if self._interactable(slot_a, slot_b):
            return
        plan_a = self._movement_plan(qubit_a, qubit_b)
        plan_b = self._movement_plan(qubit_b, qubit_a)
        cost_a = plan_a[1] if plan_a else float("inf")
        cost_b = plan_b[1] if plan_b else float("inf")
        if plan_a is None and plan_b is None:
            raise RoutingError(f"no route between qubits {qubit_a} and {qubit_b}")
        mover, path = (qubit_a, plan_a[0]) if cost_a <= cost_b else (qubit_b, plan_b[0])
        for current, nxt in zip(path, path[1:]):
            self._apply_swap(current, nxt, source_gate)
        if not self._interactable(self.slot_of[qubit_a], self.slot_of[qubit_b]):
            raise RoutingError(
                f"routing failed to make qubits {qubit_a} and {qubit_b} adjacent"
            )  # pragma: no cover - defensive

    def _interactable(self, slot_a: Slot, slot_b: Slot) -> bool:
        """Whether a single physical gate can couple the two slots."""
        if slot_a[0] == slot_b[0]:
            return True
        return self.device.topology.are_adjacent(slot_a[0], slot_b[0])

    def _movement_plan(self, mover: int, anchor: int) -> tuple[list[Slot], float] | None:
        """Cheapest SWAP path that brings ``mover`` next to ``anchor``.

        Returns the slot path the mover should follow (excluding the final CX)
        and its total cost (SWAPs plus the final CX), or None if no landing
        slot is reachable.
        """
        source = self.slot_of[mover]
        anchor_slot = self.slot_of[anchor]
        best: tuple[list[Slot], float] | None = None
        for landing in self.costs.slot_neighbors(anchor_slot):
            if landing == source:
                continue
            # Never displace the anchor itself while trying to reach it.
            if self.occupant.get(landing) == anchor:
                continue
            travel = self.costs.swap_distance(source, landing)
            if travel == float("inf"):
                continue
            total = travel + self.costs.cx_cost(landing, anchor_slot)
            if best is not None and not total < best[1]:
                # Cannot beat the best landing so far: skip the path walk.
                continue
            path = self.costs.shortest_slot_path(source, landing)
            if any(self.occupant.get(slot) == anchor for slot in path[1:]):
                # The path would move the anchor around; skip it.
                continue
            best = (path, total)
        return best
