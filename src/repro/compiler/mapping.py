"""Initial placement of logical qubits onto device slots (Section 4.2).

The mapper works on the expanded slot graph: each physical unit exposes a
primary slot ``(u, 0)`` and a secondary slot ``(u, 1)``.  Qubits are placed
one at a time in decreasing order of interaction weight with the already
placed qubits; each candidate slot is scored by how strongly the qubit
interacts with placed qubits divided by the distance to them.  The secondary
slot of a unit is only ever considered once its primary slot is occupied,
and only when the strategy allows pairing there (free pairing for EQM, or an
explicitly forced pair for the pair-list strategies).
"""

from __future__ import annotations

from repro.arch.device import Device
from repro.arch.interaction_graph import Slot
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.weights import interaction_weights, weight_between, weight_totals

#: A placement maps each logical qubit to the slot holding it.
Placement = dict[int, Slot]


class MappingError(RuntimeError):
    """Raised when a circuit cannot be placed on the device."""


def _partner_map(forced_pairs: tuple[tuple[int, int], ...]) -> dict[int, int]:
    partners: dict[int, int] = {}
    for a, b in forced_pairs:
        if a == b:
            raise ValueError("a compression pair must contain two distinct qubits")
        if a in partners or b in partners:
            raise ValueError(f"qubit appears in more than one compression pair: ({a}, {b})")
        partners[a] = b
        partners[b] = a
    return partners


def initial_mapping(
    circuit: QuantumCircuit,
    device: Device,
    allow_free_pairing: bool = False,
    forced_pairs: tuple[tuple[int, int], ...] = (),
    qubit_only: bool = False,
) -> tuple[Placement, frozenset[int]]:
    """Place every circuit qubit onto a device slot.

    Parameters
    ----------
    circuit:
        The logical circuit (already decomposed to 1q/2q gates).
    device:
        Target device.
    allow_free_pairing:
        If True (the EQM strategy), the mapper may opportunistically place a
        qubit into the secondary slot of an occupied unit whenever that
        scores best.
    forced_pairs:
        Qubit pairs that *must* share a unit (produced by the explicit
        compression strategies RB / AWE / PP / EC).
    qubit_only:
        If True, secondary slots are never used (the qubit-only baseline).

    Returns
    -------
    (placement, ququart_units):
        The slot of every logical qubit, and the frozen set of units that
        ended up holding two qubits (and therefore operate as ququarts).
    """
    if qubit_only and (allow_free_pairing or forced_pairs):
        raise ValueError("qubit_only mapping cannot also request pairing")
    num_qubits = circuit.num_qubits
    capacity = device.num_units if qubit_only else 2 * device.num_units
    if num_qubits > capacity:
        raise MappingError(
            f"circuit has {num_qubits} qubits but the device only supports {capacity} "
            f"under this strategy"
        )

    weights = interaction_weights(circuit)
    totals = weight_totals(weights, num_qubits)
    partners = _partner_map(tuple(forced_pairs))
    distances = device.topology.all_pairs_distances()

    placement: Placement = {}
    occupied: dict[Slot, int] = {}

    def slot_free(slot: Slot) -> bool:
        return slot not in occupied

    def place(qubit: int, slot: Slot) -> None:
        placement[qubit] = slot
        occupied[slot] = qubit

    # Seed: the qubit with the highest total weight goes to the centre unit.
    order_seed = max(range(num_qubits), key=lambda q: (totals.get(q, 0.0), -q))
    place(order_seed, (device.topology.center_unit(), 0))

    unmapped = set(range(num_qubits)) - {order_seed}
    while unmapped:
        # Pick the unmapped qubit with the strongest pull toward placed qubits.
        def pull(qubit: int) -> tuple[float, float, int]:
            to_placed = sum(weight_between(weights, qubit, other) for other in placement)
            return (to_placed, totals.get(qubit, 0.0), -qubit)

        qubit = max(unmapped, key=pull)
        unmapped.remove(qubit)

        candidates = _candidate_slots(
            qubit, partners, placement, occupied, device,
            allow_free_pairing=allow_free_pairing, qubit_only=qubit_only,
        )
        if not candidates:
            raise MappingError(
                f"no available slot for qubit {qubit}; the device is full under this strategy"
            )
        best_slot = _best_candidate(qubit, candidates, placement, weights, distances)
        place(qubit, best_slot)

    ququart_units = frozenset(
        unit for unit in range(device.num_units)
        if (unit, 0) in occupied and (unit, 1) in occupied
    )
    return placement, ququart_units


def _candidate_slots(
    qubit: int,
    partners: dict[int, int],
    placement: Placement,
    occupied: dict[Slot, int],
    device: Device,
    allow_free_pairing: bool,
    qubit_only: bool,
) -> list[Slot]:
    """Slots where ``qubit`` may legally be placed right now."""
    partner = partners.get(qubit)
    if partner is not None and partner in placement:
        # The partner is already down: the only legal position is the
        # secondary slot of the partner's unit.
        unit, position = placement[partner]
        target = (unit, 1 - position)
        return [target] if target not in occupied else []

    candidates: list[Slot] = []
    for unit in range(device.num_units):
        primary = (unit, 0)
        secondary = (unit, 1)
        if primary not in occupied:
            candidates.append(primary)
        elif (
            not qubit_only
            and allow_free_pairing
            and partner is None
            and secondary not in occupied
            and occupied.get(primary) is not None
            and partners.get(occupied[primary]) is None
        ):
            # Free pairing may not hijack a slot reserved for a forced pair.
            candidates.append(secondary)
    return candidates


def _best_candidate(
    qubit: int,
    candidates: list[Slot],
    placement: Placement,
    weights: dict[tuple[int, int], float],
    distances: dict[int, dict[int, int]],
) -> Slot:
    """Score candidates by interaction strength over distance to placed qubits."""
    def score(slot: Slot) -> tuple[float, float, int, int]:
        unit = slot[0]
        attraction = 0.0
        proximity = 0.0
        for other, other_slot in placement.items():
            weight = weight_between(weights, qubit, other)
            if weight == 0.0:
                continue
            hop = distances[unit][other_slot[0]]
            attraction += weight / (1.0 + hop)
            proximity -= hop
        # Prefer primary slots on ties so free pairing only happens when it
        # actually wins on attraction.
        return (attraction, proximity, -slot[1], -unit)

    return max(candidates, key=score)
