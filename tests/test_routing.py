"""Tests for the SWAP-insertion router."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import Device, grid_topology, heavy_hex_topology, linear_topology, ring_topology
from repro.circuits import QuantumCircuit
from repro.compiler import CostModel, QompressCompiler, Router
from repro.compiler.routing import RoutingError
from repro.compression import get_strategy
from repro.gates import GateStyle
from repro.runner import DeviceSpec
from repro.workloads import build_benchmark


def _line_setup(num_units=4, ququarts=(), placement=None):
    device = Device(topology=linear_topology(num_units))
    costs = CostModel(device, frozenset(ququarts))
    if placement is None:
        placement = {q: (q, 0) for q in range(num_units)}
    return device, costs, placement


class TestDirectEmission:
    def test_single_qubit_gates(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).h(0).x(3)
        ops, final = Router(device, costs, placement).run(circuit)
        assert [op.gate for op in ops] == ["x", "x"]
        assert ops[0].units == (0,)
        assert final == placement

    def test_adjacent_cx_needs_no_swaps(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).cx(0, 1)
        ops, _ = Router(device, costs, placement).run(circuit)
        assert [op.gate for op in ops] == ["cx2"]
        assert ops[0].logical_qubits == (0, 1)
        assert not ops[0].is_communication

    def test_internal_cx_when_co_encoded(self):
        device, costs, _ = _line_setup(ququarts=(1,))
        placement = {0: (1, 0), 1: (1, 1), 2: (0, 0), 3: (2, 0)}
        circuit = QuantumCircuit(4).cx(0, 1).cx(1, 0)
        ops, _ = Router(device, costs, placement).run(circuit)
        assert [op.gate for op in ops] == ["cx0_in", "cx1_in"]

    def test_measure_and_barrier(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).barrier().measure(2)
        ops, _ = Router(device, costs, placement).run(circuit)
        assert [op.gate for op in ops] == ["measure"]
        assert ops[0].units == (2,)

    def test_source_swap_does_not_relocate_qubits(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).swap(0, 1)
        router = Router(device, costs, placement)
        ops, final = router.run(circuit)
        assert [op.gate for op in ops] == ["swap2"]
        assert not ops[0].is_communication
        # Logical labels stay put: the physical exchange *is* the logical swap.
        assert final == placement


class TestRoutedCommunication:
    def test_distant_cx_inserts_swaps(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).cx(0, 3)
        ops, final = Router(device, costs, placement).run(circuit)
        swap_ops = [op for op in ops if op.style.is_swap_like]
        cx_ops = [op for op in ops if op.style.is_cx_like]
        assert len(swap_ops) >= 1
        assert all(op.is_communication for op in swap_ops)
        assert len(cx_ops) == 1
        # After routing, the CX operands must be interactable.
        slot_0, slot_3 = final[0], final[3]
        assert (
            slot_0[0] == slot_3[0]
            or device.topology.are_adjacent(slot_0[0], slot_3[0])
        )

    def test_swap_moves_update_final_placement(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).cx(0, 3)
        ops, final = Router(device, costs, placement).run(circuit)
        moved = {}
        for op in ops:
            moved.update(op.moves)
        for qubit, slot in moved.items():
            assert final[qubit] == slot or any(
                later.moves.get(qubit) == final[qubit] for later in ops
            )

    def test_occupancy_stays_consistent(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).cx(0, 3).cx(3, 1).cx(0, 2).cx(2, 3)
        router = Router(device, costs, placement)
        router.run(circuit)
        # slot_of and occupant must stay exact inverses of each other.
        assert {slot: q for q, slot in router.slot_of.items()} == router.occupant

    def test_routing_through_ququart_uses_partial_swaps(self):
        device, costs, _ = _line_setup(num_units=4, ququarts=(1,))
        placement = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (3, 0)}
        circuit = QuantumCircuit(4).cx(0, 3)
        ops, _ = Router(device, costs, placement).run(circuit)
        styles = {op.style for op in ops}
        # Moving past the ququart at unit 1 requires mixed-radix SWAPs or a
        # CX that touches the ququart's neighbourhood; in either case at
        # least one op must be a two-qudit operation.
        assert any(style.is_two_qudit for style in styles)

    def test_three_qubit_gate_rejected(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).ccx(0, 1, 2)
        with pytest.raises(RoutingError, match="decomposed"):
            Router(device, costs, placement).run(circuit)


class TestValidation:
    def test_duplicate_placement_rejected(self):
        device, costs, _ = _line_setup()
        placement = {0: (0, 0), 1: (0, 0)}
        with pytest.raises(ValueError, match="share a slot"):
            Router(device, costs, placement)

    def test_disabled_slot_rejected(self):
        device, costs, _ = _line_setup()  # no ququarts -> slot 1 disabled
        placement = {0: (0, 0), 1: (1, 1)}
        with pytest.raises(ValueError, match="disabled slot"):
            Router(device, costs, placement)

    def test_emitted_ops_have_durations_and_fidelities(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).cx(0, 3).h(1)
        ops, _ = Router(device, costs, placement).run(circuit)
        for op in ops:
            assert op.duration_ns > 0
            assert 0 < op.fidelity <= 1
            assert op.slots

    def test_gate_style_counts(self):
        device, costs, placement = _line_setup()
        circuit = QuantumCircuit(4).cx(0, 1).cx(2, 3).h(0)
        ops, _ = Router(device, costs, placement).run(circuit)
        styles = [op.style for op in ops]
        assert styles.count(GateStyle.QUBIT_QUBIT_CX) == 2
        assert styles.count(GateStyle.SINGLE_QUBIT) == 1


def reference_movement_plan(router, mover, anchor):
    """The landing loop before pruning: walks the path of every landing."""
    costs = router.costs
    source = router.slot_of[mover]
    anchor_slot = router.slot_of[anchor]
    best = None
    for landing in costs.slot_neighbors(anchor_slot):
        if landing == source:
            continue
        if router.occupant.get(landing) == anchor:
            continue
        travel = costs.swap_distance(source, landing)
        if travel == float("inf"):
            continue
        path = costs.shortest_slot_path(source, landing)
        if any(router.occupant.get(slot) == anchor for slot in path[1:]):
            continue
        total = travel + costs.cx_cost(landing, anchor_slot)
        if best is None or total < best[1]:
            best = (path, total)
    return best


_TOPOLOGIES = {
    "linear": lambda: linear_topology(5),
    "grid": lambda: grid_topology(3, 3),
    "ring": lambda: ring_topology(6),
    "heavy_hex": lambda: heavy_hex_topology(2, 5),
}


@st.composite
def routers(draw):
    topology = _TOPOLOGIES[draw(st.sampled_from(sorted(_TOPOLOGIES)))]()
    ququarts = draw(st.sets(st.integers(0, topology.num_units - 1)))
    device = Device(topology=topology)
    costs = CostModel(device, frozenset(ququarts))
    slots = draw(st.permutations(costs.enabled_slots()))
    count = draw(st.integers(2, len(slots)))
    return Router(device, costs, dict(enumerate(slots[:count])))


class TestMovementPlan:
    @given(router=routers())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_walk_every_landing(self, router):
        for mover in router.slot_of:
            for anchor in router.slot_of:
                if mover != anchor:
                    assert router._movement_plan(mover, anchor) == reference_movement_plan(
                        router, mover, anchor
                    )

    def test_equal_cost_ties_keep_the_first_landing(self):
        device = Device(topology=grid_topology(3, 3))
        costs = CostModel(device, frozenset())
        router = Router(device, costs, {0: (0, 0), 1: (8, 0), 2: (4, 0)})
        anchor_slot = router.slot_of[1]
        totals = Counter(
            costs.swap_distance((0, 0), landing) + costs.cx_cost(landing, anchor_slot)
            for landing in costs.slot_neighbors(anchor_slot)
        )
        assert totals[min(totals)] > 1  # two landings of equal best cost
        assert router._movement_plan(0, 1) == reference_movement_plan(router, 0, 1)


class TestCompileFrontEndWork:
    def test_layering_built_once_and_paths_walked_only_to_win(self, monkeypatch):
        layerings: Counter = Counter()
        calls = Counter()
        original_layers = QuantumCircuit._asap_layers
        original_plan = Router._movement_plan
        original_path = CostModel.shortest_slot_path

        def spy_layers(self):
            layerings[id(self)] += 1
            return original_layers(self)

        def spy_plan(self, mover, anchor):
            calls["landings"] += len(self.costs.slot_neighbors(self.slot_of[anchor]))
            return original_plan(self, mover, anchor)

        def spy_path(self, source, destination):
            calls["paths"] += 1
            return original_path(self, source, destination)

        monkeypatch.setattr(QuantumCircuit, "_asap_layers", spy_layers)
        monkeypatch.setattr(Router, "_movement_plan", spy_plan)
        monkeypatch.setattr(CostModel, "shortest_slot_path", spy_path)
        device = DeviceSpec(kind="grid").build(16)
        compiled = QompressCompiler(device, get_strategy("awe")).compile(
            build_benchmark("qft", 16)
        )
        assert layerings[id(compiled.lowered_circuit)] == 1
        assert calls["landings"] > 0
        assert calls["paths"] < calls["landings"]
