"""Tests for the Eq. 4 success-probability cost model."""

import heapq
import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arch import (
    Device,
    grid_topology,
    heavy_hex_topology,
    linear_topology,
    ring_topology,
)
from repro.compiler import CostModel
from repro.compression.awe import AverageWeightPerEdge, _contracted_average, _edge_weights
from repro.compression.base import circuit_interaction_graph, contract, copy_order
from tests.conftest import make_random_circuit


@pytest.fixture
def line_costs():
    device = Device(topology=linear_topology(4))
    # Units 1 and 2 operate as ququarts.
    return device, CostModel(device, {1, 2})


class TestStructure:
    def test_unit_modes(self, line_costs):
        device, costs = line_costs
        from repro.gates import UnitMode

        assert costs.unit_mode(0) is UnitMode.QUBIT
        assert costs.unit_mode(1) is UnitMode.QUQUART

    def test_enabled_slots(self, line_costs):
        _device, costs = line_costs
        enabled = set(costs.enabled_slots())
        assert (0, 0) in enabled and (0, 1) not in enabled
        assert (1, 0) in enabled and (1, 1) in enabled
        assert costs.is_enabled((2, 1))
        assert not costs.is_enabled((3, 1))

    def test_slot_neighbors_respect_modes(self, line_costs):
        _device, costs = line_costs
        neighbors = set(costs.slot_neighbors((0, 0)))
        # Unit 0 is a qubit: no partner slot; unit 1 is a ququart: both slots.
        assert neighbors == {(1, 0), (1, 1)}
        neighbors = set(costs.slot_neighbors((1, 0)))
        assert (1, 1) in neighbors
        assert (0, 0) in neighbors and (2, 0) in neighbors and (2, 1) in neighbors
        assert (0, 1) not in neighbors


class TestGateSelection:
    def test_single_qubit_gate(self, line_costs):
        _device, costs = line_costs
        assert costs.single_qubit_gate((0, 0)) == "x"
        assert costs.single_qubit_gate((1, 0)) == "x0"
        assert costs.single_qubit_gate((1, 1)) == "x1"

    def test_cx_gate_selection(self, line_costs):
        _device, costs = line_costs
        assert costs.cx_gate((0, 0), (3, 0)) == "cx2"
        assert costs.cx_gate((1, 0), (0, 0)) == "cx0q"
        assert costs.cx_gate((0, 0), (1, 1)) == "cxq1"
        assert costs.cx_gate((1, 0), (2, 1)) == "cx01"
        assert costs.cx_gate((1, 0), (1, 1)) == "cx0_in"

    def test_swap_gate_selection(self, line_costs):
        _device, costs = line_costs
        assert costs.swap_gate((0, 0), (3, 0)) == "swap2"
        assert costs.swap_gate((0, 0), (1, 1)) == "swapq1"
        assert costs.swap_gate((1, 1), (2, 0)) == "swap01"
        assert costs.swap_gate((1, 0), (1, 1)) == "swap_in"


class TestSuccessProbabilities:
    def test_op_success_formula(self, line_costs):
        device, costs = line_costs
        duration = device.durations.duration("cx2")
        fidelity = device.durations.fidelity("cx2")
        expected = fidelity * math.exp(-duration / device.qubit_t1_ns) ** 2
        assert costs.op_success("cx2", (0, 3)) == pytest.approx(expected)

    def test_ququart_units_use_shorter_t1(self, line_costs):
        device, costs = line_costs
        success_qubit_pair = costs.op_success("cx2", (0, 3))
        success_mixed = costs.op_success("cx2", (0, 1))
        # The same gate is less likely to succeed if one unit is a ququart.
        assert success_mixed < success_qubit_pair

    def test_op_cost_is_negative_log(self, line_costs):
        _device, costs = line_costs
        success = costs.op_success("swap2", (0, 3))
        assert costs.op_cost("swap2", (0, 3)) == pytest.approx(-math.log(success))

    def test_costs_are_positive(self, line_costs):
        _device, costs = line_costs
        assert costs.swap_cost((0, 0), (1, 0)) > 0
        assert costs.cx_cost((0, 0), (1, 0)) > 0


class TestDistances:
    def test_swap_distance_zero_to_self(self, line_costs):
        _device, costs = line_costs
        assert costs.swap_distance((0, 0), (0, 0)) == 0.0

    def test_swap_distance_monotone_with_hops(self, line_costs):
        _device, costs = line_costs
        near = costs.swap_distance((0, 0), (1, 0))
        far = costs.swap_distance((0, 0), (3, 0))
        assert far > near

    def test_shortest_slot_path_endpoints(self, line_costs):
        _device, costs = line_costs
        path = costs.shortest_slot_path((0, 0), (3, 0))
        assert path[0] == (0, 0)
        assert path[-1] == (3, 0)
        # Consecutive path elements must be neighbours.
        for a, b in zip(path, path[1:]):
            assert b in costs.slot_neighbors(a)

    def test_interaction_distance_adjacent_qubits_is_just_cx(self):
        device = Device(topology=linear_topology(4))
        costs = CostModel(device, frozenset())
        distance = costs.interaction_distance((0, 0), (1, 0))
        assert distance == pytest.approx(costs.cx_cost((0, 0), (1, 0)), rel=1e-6)

    def test_interaction_distance_may_prefer_internal_cx(self, line_costs):
        # When the partner unit is a ququart, swapping into it and using the
        # fast internal CX can beat the direct partial CX (this is exactly the
        # flexibility the paper's gate set provides).
        _device, costs = line_costs
        distance = costs.interaction_distance((0, 0), (1, 0))
        assert distance <= costs.cx_cost((0, 0), (1, 0)) + 1e-9

    def test_interaction_distance_far_includes_swaps(self, line_costs):
        _device, costs = line_costs
        adjacent = costs.interaction_distance((0, 0), (1, 0))
        far = costs.interaction_distance((0, 0), (3, 0))
        assert far > adjacent

    def test_qubit_only_model_matches_simple_grid(self):
        device = Device(topology=grid_topology(2, 2))
        costs = CostModel(device, frozenset())
        # With no ququarts every link uses the same swap2 cost.
        step = costs.swap_cost((0, 0), (1, 0))
        assert costs.swap_distance((0, 0), (3, 0)) == pytest.approx(2 * step)


# ----------------------------------------------------------------------
# tie-break properties: the cached search against the searches it replaced
# ----------------------------------------------------------------------
_PROPERTY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SMALL_TOPOLOGIES = {
    "linear": lambda: linear_topology(5),
    "grid": lambda: grid_topology(2, 3),
    "ring": lambda: ring_topology(6),
    "heavy_hex": lambda: heavy_hex_topology(2, 5),
}


@st.composite
def cost_models(draw):
    topology = _SMALL_TOPOLOGIES[draw(st.sampled_from(sorted(_SMALL_TOPOLOGIES)))]()
    ququarts = draw(st.sets(st.integers(0, topology.num_units - 1)))
    return CostModel(Device(topology=topology), frozenset(ququarts))


def reference_slot_path(costs, source, destination):
    """Early-exit Dijkstra over ``slot_neighbors``/``swap_cost``, uncached."""
    if source == destination:
        return [source]
    distances = {source: 0.0}
    previous = {}
    queue = [(0.0, source)]
    visited = set()
    while queue:
        cost, slot = heapq.heappop(queue)
        if slot in visited:
            continue
        if slot == destination:
            break
        visited.add(slot)
        for neighbor in costs.slot_neighbors(slot):
            step = costs.swap_cost(slot, neighbor)
            new_cost = cost + step
            if new_cost < distances.get(neighbor, float("inf")):
                distances[neighbor] = new_cost
                previous[neighbor] = slot
                heapq.heappush(queue, (new_cost, neighbor))
    if destination not in distances:
        raise RuntimeError(f"no route from {source} to {destination}")
    path = [destination]
    while path[-1] != source:
        path.append(previous[path[-1]])
    path.reverse()
    return path


class TestSearchTieBreaks:
    @given(costs=cost_models())
    @_PROPERTY_SETTINGS
    def test_paths_match_early_exit_search(self, costs):
        slots = costs.enabled_slots()
        for source in slots:
            for destination in slots:
                assert costs.shortest_slot_path(source, destination) == reference_slot_path(
                    costs, source, destination
                )

    @given(costs=cost_models())
    @_PROPERTY_SETTINGS
    def test_disabled_sources_expand_like_enabled_ones(self, costs):
        # PP estimates distances from hypothetical slots that may be disabled.
        disabled = [
            (unit, 1) for unit in range(costs.device.num_units)
            if not costs.is_enabled((unit, 1))
        ]
        for source in disabled:
            for destination in costs.enabled_slots():
                path = costs.shortest_slot_path(source, destination)
                assert path == reference_slot_path(costs, source, destination)
                assert costs.swap_distance(source, destination) == sum(
                    costs.swap_cost(a, b) for a, b in zip(path, path[1:])
                )

    @given(costs=cost_models())
    @_PROPERTY_SETTINGS
    def test_distance_is_path_cost_bit_for_bit(self, costs):
        slots = costs.enabled_slots()
        for source in slots:
            for destination in slots:
                path = costs.shortest_slot_path(source, destination)
                assert costs.swap_distance(source, destination) == sum(
                    costs.swap_cost(a, b) for a, b in zip(path, path[1:])
                )


def _average_edge_weight(graph: nx.Graph) -> float:
    """Mean weight over edges; zero for an edgeless graph (the networkx oracle)."""
    if graph.number_of_edges() == 0:
        return 0.0
    total = sum(data["weight"] for _a, _b, data in graph.edges(data=True))
    return total / graph.number_of_edges()


def _contracted(graph: nx.Graph, a, b) -> nx.Graph:
    """Copy of the graph with nodes ``a`` and ``b`` merged into one (the networkx oracle)."""
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


def _weights(graph: nx.Graph) -> dict:
    """A networkx graph as the plain ``{u: {v: weight}}`` adjacency AWE plans on."""
    return {u: {v: data["weight"] for v, data in nbrs.items()} for u, nbrs in graph.adj.items()}


@st.composite
def weighted_graphs(draw):
    num_nodes = draw(st.integers(2, 8))
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    pairs = [(a, b) for a in range(num_nodes) for b in range(a + 1, num_nodes)]
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
        graph.add_edge(a, b, weight=draw(st.floats(0.01, 10.0)))
    if draw(st.booleans()) and graph.number_of_edges():
        # Score on a graph that already holds a merged (tuple) node.
        a, b = draw(st.sampled_from(sorted(graph.edges)))
        graph = _contracted(graph, a, b)
    return graph


def reference_awe_plan(circuit):
    """AWE's greedy loop scoring every candidate on a contracted copy."""
    graph = circuit_interaction_graph(circuit)
    graph.remove_nodes_from([node for node in list(graph.nodes) if graph.degree(node) == 0])
    pairs = []
    while len(pairs) < circuit.num_qubits // 2:
        current = _average_edge_weight(graph)
        best_gain = 0.0
        best_pair = None
        candidates = [node for node in graph.nodes if isinstance(node, int)]
        for i, a in enumerate(candidates):
            for b in candidates[i + 1 :]:
                if not (graph.has_edge(a, b) or set(graph.neighbors(a)) & set(graph.neighbors(b))):
                    continue
                gain = _average_edge_weight(_contracted(graph, a, b)) - current
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        pairs.append((a, b) if a < b else (b, a))
        graph = _contracted(graph, a, b)
    return tuple(sorted(pairs))


class TestAweScoring:
    @given(graph=weighted_graphs())
    @_PROPERTY_SETTINGS
    def test_degree_score_matches_contracted_copy(self, graph):
        edges = graph.number_of_edges()
        total = sum(weight for _a, _b, weight in graph.edges(data="weight"))
        nodes = [node for node in graph.nodes if isinstance(node, int)]
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                expected = _average_edge_weight(_contracted(graph, a, b))
                score = _contracted_average(_weights(graph), a, b, edges, total)
                assert score == pytest.approx(expected, rel=0, abs=1e-12)

    @given(graph=weighted_graphs(), data=st.data())
    @_PROPERTY_SETTINGS
    def test_contraction_matches_the_networkx_copy(self, graph, data):
        nodes = [node for node in graph.nodes if isinstance(node, int)]
        assume(len(nodes) >= 2)
        a, b = data.draw(st.sampled_from([(a, b) for a in nodes for b in nodes if a < b]))
        expected = _contracted(graph, a, b)
        merged = contract(copy_order(_weights(graph)), a, b)
        assert list(merged) == list(expected.nodes)
        for node, neighbours in merged.items():
            if node == (a, b):
                # The new node's own order is never read before the next
                # copy_order, which rebuilds it in node order.
                assert neighbours.keys() == expected.adj[node].keys()
            else:
                assert list(neighbours) == list(expected.adj[node])
            for neighbour, weight in neighbours.items():
                assert weight == expected.edges[node, neighbour]["weight"]
        # The float total is summed in networkx's edge order, bit for bit.
        assert sum(_edge_weights(merged)) == sum(
            weight for _a, _b, weight in expected.edges(data="weight")
        )

    @given(
        num_qubits=st.integers(2, 10),
        num_gates=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    @_PROPERTY_SETTINGS
    def test_plan_matches_copy_based_reference(self, num_qubits, num_gates, seed):
        circuit = make_random_circuit(num_qubits, num_gates, seed=seed)
        device = Device(topology=grid_topology(2, 5))
        plan = AverageWeightPerEdge().plan(circuit, device)
        assert plan.pairs == reference_awe_plan(circuit)


class TestCxCostMemo:
    @pytest.mark.parametrize(
        "topology", [grid_topology(3, 4), heavy_hex_topology(2, 5)], ids=["grid", "heavy_hex"]
    )
    def test_memoised_cost_equals_fresh_models(self, topology):
        device = Device(topology=topology)
        # Mixed modes: every third unit stays a bare qubit.
        ququarts = frozenset(unit for unit in range(device.num_units) if unit % 3)
        costs = CostModel(device, ququarts)
        pairs = [
            (control, target)
            for control in costs.enabled_slots()
            for target in costs.slot_neighbors(control)
        ]
        assert any(c[0] == t[0] for c, t in pairs)
        assert any(c[0] not in ququarts or t[0] not in ququarts for c, t in pairs)
        first = {pair: costs.cx_cost(*pair) for pair in pairs}
        for control, target in pairs:
            memoised = costs.cx_cost(control, target)
            fresh = CostModel(device, ququarts).cx_cost(control, target)
            direct = costs.op_cost(costs.cx_gate(control, target), (control[0], target[0]))
            assert memoised == first[(control, target)] == fresh == direct
