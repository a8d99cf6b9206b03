"""Tests for the compression strategies (Section 5) and baselines (Section 6.2)."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import Device
from repro.circuits import QuantumCircuit, decompose_to_basis
from repro.compiler import QompressCompiler
from repro.compression import (
    AverageWeightPerEdge,
    ExhaustiveCompression,
    ExtendedQubitMapping,
    FullQuquart,
    ProgressivePairing,
    QubitOnly,
    RingBased,
    circuit_interaction_graph,
    get_strategy,
)
from repro.compression import ring_based
from repro.compression.base import (
    copy_order,
    greedy_max_weight_pairing,
    interaction_adjacency,
    simultaneity_counts,
)
from repro.compression.exhaustive import _critical_path_qubits
from repro.runner import DeviceSpec
from repro.workloads import bernstein_vazirani, build_benchmark, cuccaro_adder, generalized_toffoli
from tests.conftest import make_random_circuit


def _device_for(circuit):
    return Device.grid_for_circuit(circuit.num_qubits)


def _assert_valid_pairs(plan, circuit):
    seen = set()
    for a, b in plan.pairs:
        assert a != b
        assert 0 <= a < circuit.num_qubits
        assert 0 <= b < circuit.num_qubits
        assert a not in seen and b not in seen
        seen.update((a, b))


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("qubit_only", QubitOnly), ("fq", FullQuquart), ("eqm", ExtendedQubitMapping),
        ("rb", RingBased), ("awe", AverageWeightPerEdge), ("pp", ProgressivePairing),
        ("ec", ExhaustiveCompression),
    ])
    def test_lookup_by_name(self, name, cls):
        assert isinstance(get_strategy(name), cls)

    def test_lookup_is_case_insensitive(self):
        assert isinstance(get_strategy("EQM"), ExtendedQubitMapping)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_strategy("magic")


class TestBaselines:
    def test_qubit_only_plan(self):
        circuit = make_random_circuit(6, 15, seed=0)
        plan = QubitOnly().plan(circuit, _device_for(circuit))
        assert plan.qubit_only
        assert not plan.pairs

    def test_fq_pairs_every_qubit(self):
        circuit = make_random_circuit(8, 30, seed=1)
        plan = FullQuquart().plan(circuit, _device_for(circuit))
        assert plan.full_ququart
        assert len(plan.paired_qubits) == 8
        _assert_valid_pairs(plan, circuit)

    def test_fq_pairs_odd_register(self):
        circuit = make_random_circuit(7, 25, seed=2)
        plan = FullQuquart().plan(circuit, _device_for(circuit))
        assert len(plan.paired_qubits) == 6  # one qubit stays bare

    def test_fq_handles_interaction_free_circuit(self):
        circuit = QuantumCircuit(4).x(0).x(1).x(2).x(3)
        plan = FullQuquart().plan(circuit, _device_for(circuit))
        assert len(plan.pairs) == 2


class TestEQM:
    def test_plan_requests_free_pairing_only(self):
        circuit = make_random_circuit(6, 15, seed=3)
        plan = ExtendedQubitMapping().plan(circuit, _device_for(circuit))
        assert plan.allow_free_pairing
        assert not plan.pairs
        assert not plan.qubit_only


class TestRingBased:
    def test_no_pairs_for_bernstein_vazirani(self):
        # BV's interaction graph is a star: no cycles, so RB must not compress.
        circuit = decompose_to_basis(bernstein_vazirani(10, seed=1))
        plan = RingBased().plan(circuit, _device_for(circuit))
        assert plan.pairs == ()

    def test_pairs_found_in_cuccaro_triangles(self):
        circuit = decompose_to_basis(cuccaro_adder(10))
        plan = RingBased().plan(circuit, _device_for(circuit))
        assert len(plan.pairs) >= 2
        _assert_valid_pairs(plan, circuit)

    def test_pairs_found_in_cnu(self):
        circuit = decompose_to_basis(generalized_toffoli(9))
        plan = RingBased().plan(circuit, _device_for(circuit))
        assert len(plan.pairs) >= 1
        _assert_valid_pairs(plan, circuit)

    def test_max_pairs_respected(self):
        circuit = decompose_to_basis(cuccaro_adder(12))
        plan = RingBased(max_pairs=1).plan(circuit, _device_for(circuit))
        assert len(plan.pairs) <= 1

    def test_paired_qubits_share_a_cycle(self):
        circuit = decompose_to_basis(cuccaro_adder(8))
        graph = circuit_interaction_graph(circuit)
        plan = RingBased().plan(circuit, _device_for(circuit))
        for a, b in plan.pairs:
            # Pair members are at distance at most 2 in the interaction graph
            # (they share a cycle, usually a triangle).
            assert nx.shortest_path_length(graph, a, b) <= 2


class TestAWE:
    def test_pairs_are_valid(self):
        circuit = make_random_circuit(8, 30, seed=4)
        plan = AverageWeightPerEdge().plan(circuit, _device_for(circuit))
        _assert_valid_pairs(plan, circuit)

    def test_awe_compresses_shared_neighbour_structure(self):
        # Two qubits interacting with the same partners raise the average
        # weight per edge when merged.
        circuit = QuantumCircuit(6)
        for target in (2, 3, 4, 5):
            circuit.cx(0, target)
            circuit.cx(1, target)
        plan = AverageWeightPerEdge().plan(circuit, _device_for(circuit))
        assert (0, 1) in plan.pairs

    def test_no_pairs_when_nothing_improves(self):
        # A single isolated interaction cannot be improved by merging others.
        circuit = QuantumCircuit(4).cx(0, 1)
        plan = AverageWeightPerEdge().plan(circuit, _device_for(circuit))
        assert all(set(pair) != {2, 3} for pair in plan.pairs)

    def test_max_pairs_respected(self):
        circuit = make_random_circuit(10, 40, seed=5)
        plan = AverageWeightPerEdge(max_pairs=2).plan(circuit, _device_for(circuit))
        assert len(plan.pairs) <= 2


class TestProgressivePairing:
    def test_pairs_are_valid(self):
        circuit = decompose_to_basis(cuccaro_adder(10))
        plan = ProgressivePairing().plan(circuit, _device_for(circuit))
        _assert_valid_pairs(plan, circuit)

    def test_interaction_free_circuit_gets_no_pairs(self):
        circuit = QuantumCircuit(5).x(0).h(1).z(2)
        plan = ProgressivePairing().plan(circuit, _device_for(circuit))
        assert plan.pairs == ()

    def test_max_pairs_respected(self):
        circuit = decompose_to_basis(cuccaro_adder(12))
        plan = ProgressivePairing(max_pairs=1).plan(circuit, _device_for(circuit))
        assert len(plan.pairs) <= 1


class TestExhaustive:
    def test_pairs_improve_gate_eps(self):
        from repro.metrics import evaluate_eps

        circuit = decompose_to_basis(generalized_toffoli(7))
        device = _device_for(circuit)
        strategy = ExhaustiveCompression(max_pairs=2, max_evaluations=120)
        plan = strategy.plan(circuit, device)
        _assert_valid_pairs(plan, circuit)
        if plan.pairs:
            baseline = evaluate_eps(QompressCompiler(device, QubitOnly()).compile(circuit))
            compressed = evaluate_eps(
                QompressCompiler(device, strategy).compile(circuit)
            )
            assert compressed.gate_eps >= baseline.gate_eps

    def test_selection_modes(self):
        circuit = decompose_to_basis(cuccaro_adder(8))
        device = _device_for(circuit)
        critical = ExhaustiveCompression(selection="critical", max_pairs=1,
                                         max_evaluations=60).plan(circuit, device)
        unordered = ExhaustiveCompression(selection="any", max_pairs=1,
                                          max_evaluations=60).plan(circuit, device)
        _assert_valid_pairs(critical, circuit)
        _assert_valid_pairs(unordered, circuit)

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError):
            ExhaustiveCompression(selection="random")

    def test_evaluation_budget_respected(self):
        circuit = decompose_to_basis(cuccaro_adder(8))
        strategy = ExhaustiveCompression(max_evaluations=3)
        plan = strategy.plan(circuit, _device_for(circuit))
        _assert_valid_pairs(plan, circuit)

    def test_candidates_come_from_the_lowered_circuit(self):
        # The raw circuit's critical path differs from the lowered one's,
        # and the lowered circuit is the one every candidate compile scores.
        circuit = (QuantumCircuit(7).cx(0, 3).cx(6, 2).cx(3, 0).h(1).h(0)
                   .cx(6, 0).cx(2, 5).ccx(4, 2, 1))
        device = DeviceSpec(kind="grid").build(7)
        raw = ExhaustiveCompression().plan(circuit, device)
        lowered = ExhaustiveCompression().plan(decompose_to_basis(circuit), device)
        compiled = QompressCompiler(device, ExhaustiveCompression()).compile(circuit)
        assert raw.pairs == lowered.pairs == compiled.compressed_pairs == ((0, 1), (2, 5))


class TestCriticalPathQubits:
    def test_critical_path_qubits(self):
        # The chain is gates 0, 1, 2; x(0) hangs off its first gate.
        circuit = QuantumCircuit(4).cx(0, 1).cx(1, 2).cx(2, 3).x(0)
        assert _critical_path_qubits(circuit) == {0, 1, 2, 3}

    def test_critical_path_nodes_form_a_chain(self):
        # cx(0, 4) branches off the chain's first gate, so qubit 4 is not on it.
        circuit = QuantumCircuit(5).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 4)
        assert _critical_path_qubits(circuit) == {0, 1, 2, 3}

    def test_empty_circuit(self):
        assert _critical_path_qubits(QuantumCircuit(2)) == set()

    def test_the_longest_chain_wins(self):
        circuit = QuantumCircuit(3)
        for _ in range(4):
            circuit.cx(0, 1)
        circuit.x(2)
        assert _critical_path_qubits(circuit) == {0, 1}

    def test_a_chain_crosses_a_two_qubit_gate(self):
        circuit = QuantumCircuit(3).x(0).cx(0, 1).h(1).x(2)
        assert _critical_path_qubits(circuit) == {0, 1}

    def test_a_tie_goes_to_the_lowest_gate_index(self):
        assert _critical_path_qubits(QuantumCircuit(2).x(0).x(1)) == {0}

    def test_a_classical_bit_links_a_measurement_to_its_condition(self):
        circuit = QuantumCircuit(2).measure_mid(0, 0)
        circuit.add("x", 1, condition=((0,), 1)).x(1)
        assert _critical_path_qubits(circuit) == {0, 1}

    def test_a_barrier_on_the_chain_counts_as_a_gate(self):
        circuit = QuantumCircuit(3).h(0).h(0).barrier().x(1)
        assert _critical_path_qubits(circuit) == {0, 1, 2}


class TestSharedHelpers:
    def test_interaction_graph_includes_idle_qubits(self):
        circuit = QuantumCircuit(5).cx(0, 1)
        graph = circuit_interaction_graph(circuit)
        assert set(graph.nodes) == {0, 1, 2, 3, 4}
        assert graph.edges[0, 1]["count"] == 1

    def test_greedy_pairing_prefers_heavy_edges(self):
        circuit = QuantumCircuit(4)
        for _ in range(5):
            circuit.cx(0, 1)
        circuit.cx(1, 2).cx(2, 3)
        graph = circuit_interaction_graph(circuit)
        pairs = greedy_max_weight_pairing(graph)
        assert (0, 1) in pairs

    def test_simultaneity_counts(self):
        circuit = QuantumCircuit(4).cx(0, 1).cx(2, 3)
        counts = simultaneity_counts(circuit)
        # Gates in the same moment make their operands simultaneous.
        assert counts[(0, 2)] == 1
        assert counts[(1, 3)] == 1
        assert (0, 1) not in counts


# ----------------------------------------------------------------------
# RB against the networkx remove / BFS / re-add planner it replaced
# ----------------------------------------------------------------------
def reference_rb_plan(circuit, simultaneity_penalty=0.05):
    """RB's plan computed on a mutated ``nx.Graph``, as the strategy once did."""
    simultaneous = simultaneity_counts(circuit)
    pairs, paired = [], set()
    working = circuit_interaction_graph(circuit).copy()
    while len(pairs) < circuit.num_qubits // 2:
        cycles, seen = [], set()
        for node in working.nodes:
            best = None
            for neighbor in list(working.neighbors(node)):
                data = working.edges[node, neighbor]
                working.remove_edge(node, neighbor)
                try:
                    path = nx.shortest_path(working, neighbor, node)
                    if best is None or len(path) < len(best):
                        best = path
                except nx.NetworkXNoPath:
                    pass
                finally:
                    working.add_edge(node, neighbor, **data)
            if best is not None and frozenset(best) not in seen:
                seen.add(frozenset(best))
                cycles.append(best)
        if not cycles:
            break
        bound = min(len(cycle) for cycle in cycles)
        cycles = [cycle for cycle in cycles if len(cycle) <= bound + 1]
        membership = {}
        for cycle in cycles:
            originals = [node for node in cycle if isinstance(node, int)]
            for a in originals:
                for b in originals:
                    if a < b:
                        membership[(a, b)] = membership.get((a, b), 0) + 1
        candidate = None
        for cycle in cycles:
            members = [q for q in cycle if isinstance(q, int) and q not in paired]
            if len(members) < 2:
                continue
            anchor = min(
                members, key=lambda q: sum(1 for n in working.neighbors(q) if n not in cycle)
            )
            for other in members:
                if other == anchor:
                    continue
                key = tuple(sorted((anchor, other)))
                internal = (
                    working.edges[anchor, other]["weight"]
                    if working.has_edge(anchor, other) else 0.0
                )
                neighbors_a = set(working.neighbors(anchor)) - {other}
                neighbors_b = set(working.neighbors(other)) - {anchor}
                score = (
                    internal
                    + 0.5 * len(neighbors_a & neighbors_b)
                    + 0.1 * len(neighbors_a | neighbors_b)
                    + 0.25 * membership.get(key, 0)
                    - simultaneity_penalty * simultaneous.get(key, 0)
                )
                if score > 0.0 and (candidate is None or score > candidate[0]):
                    candidate = (score, (anchor, other))
        if candidate is None:
            break
        a, b = candidate[1]
        pairs.append((a, b) if a < b else (b, a))
        paired.update((a, b))
        merged = (a, b)
        working.add_node(merged)
        for original in (a, b):
            for neighbor in list(working.neighbors(original)):
                if neighbor in (a, b):
                    continue
                weight = working.edges[original, neighbor]["weight"]
                if working.has_edge(merged, neighbor):
                    working.edges[merged, neighbor]["weight"] += weight
                else:
                    working.add_edge(merged, neighbor, weight=weight)
        working.remove_node(a)
        working.remove_node(b)
    return tuple(sorted(pairs))


def _lowered(name, size, seed=0):
    return decompose_to_basis(build_benchmark(name, size, seed=seed))


class TestRingBasedMatchesNetworkx:
    @given(
        num_qubits=st.integers(3, 10),
        num_gates=st.integers(1, 50),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_circuits(self, num_qubits, num_gates, seed):
        circuit = make_random_circuit(num_qubits, num_gates, seed=seed)
        assert RingBased().plan(circuit, None).pairs == reference_rb_plan(circuit)

    @pytest.mark.parametrize("name", ["qft", "qaoa_cylinder", "qaoa_torus", "cuccaro", "cnu"])
    @pytest.mark.parametrize("size", [8, 12, 16])
    def test_registry_circuits(self, name, size):
        circuit = _lowered(name, size)
        assert RingBased().plan(circuit, None).pairs == reference_rb_plan(circuit)

    @pytest.mark.parametrize("name,size", [("qaoa_cylinder", 9), ("qaoa_torus", 8)])
    def test_copy_order_trap(self, name, size):
        # The planner's working graph was ``graph.copy()``, which re-adds the
        # edges in adjacency order and so reorders each node's neighbours.
        # Planning on the builder's order instead changes these two plans.
        circuit = _lowered(name, size)
        assert RingBased().plan(circuit, None).pairs == reference_rb_plan(circuit)

    def test_plan_makes_no_networkx_shortest_path_call(self, monkeypatch):
        from networkx.algorithms.shortest_paths import generic, unweighted

        calls = []

        def spy(owner, name):
            function = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in [
            (nx, "shortest_path"),
            (generic, "shortest_path"),
            (nx, "bidirectional_shortest_path"),
            (unweighted, "bidirectional_shortest_path"),
            (unweighted, "_bidirectional_pred_succ"),
        ]:
            spy(owner, name)
        spy(ring_based, "_shortest_path")
        RingBased().plan(_lowered("qft", 16), None)
        probes = calls.count("_shortest_path")
        assert probes > 0
        assert len(calls) == probes, calls


class TestAdjacencyHelpers:
    @given(
        num_qubits=st.integers(2, 10),
        num_gates=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_orders_match_networkx(self, num_qubits, num_gates, seed):
        circuit = make_random_circuit(num_qubits, num_gates, seed=seed)
        graph = circuit_interaction_graph(circuit)
        adjacency = interaction_adjacency(circuit)

        def layout(adj):
            return [(node, list(neighbours)) for node, neighbours in adj.items()]

        assert layout(adjacency) == layout(graph.adj)
        copied = graph.copy()
        assert layout(copy_order(adjacency)) == layout(copied.adj)
        for node, neighbours in copy_order(adjacency).items():
            for neighbour, weight in neighbours.items():
                assert weight == copied.edges[node, neighbour]["weight"]
