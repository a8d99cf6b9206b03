"""Tests for device topologies."""

import dataclasses
import hashlib
import io
import pickle
from pathlib import Path

import networkx as nx
import pytest

from repro.analysis import verify_compiled
from repro.arch import (
    Topology,
    grid_for_circuit,
    grid_topology,
    heavy_hex_topology,
    linear_topology,
    ring_topology,
)
from repro.runner import DeviceSpec, SweepPoint


class TestTopologyClass:
    def test_validates_node_labels(self):
        graph = nx.Graph()
        graph.add_edge(1, 2)
        with pytest.raises(ValueError, match="consecutive"):
            Topology(graph)

    def test_rejects_disconnected_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        with pytest.raises(ValueError, match="connected"):
            Topology(graph)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            Topology(nx.Graph())

    def test_accessors(self):
        topology = grid_topology(2, 2)
        assert topology.num_units == 4
        assert topology.num_links == 4
        assert topology.are_adjacent(0, 1)
        assert not topology.are_adjacent(0, 3)
        assert topology.neighbors(0) == [1, 2]
        assert topology.shortest_path_length(0, 3) == 2

    def test_all_pairs_distances(self):
        topology = linear_topology(4)
        distances = topology.all_pairs_distances()
        assert distances[0][3] == 3
        assert distances[2][2] == 0

    def test_center_unit_of_line(self):
        assert linear_topology(5).center_unit() in (1, 2, 3)
        assert linear_topology(3).center_unit() == 1


class TestGrid:
    def test_grid_shape(self):
        topology = grid_topology(3, 4)
        assert topology.num_units == 12
        # Interior links: 3*3 horizontal + 2*4 vertical = 17.
        assert topology.num_links == 17

    def test_grid_degree_bounded_by_four(self):
        topology = grid_topology(4, 4)
        assert max(len(topology.neighbors(u)) for u in range(16)) <= 4

    @pytest.mark.parametrize("n,expected_units", [(5, 6), (9, 9), (10, 12), (16, 16), (20, 20)])
    def test_grid_for_circuit_is_just_large_enough(self, n, expected_units):
        topology = grid_for_circuit(n)
        assert topology.num_units == expected_units
        assert topology.num_units >= n

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            grid_topology(0, 3)
        with pytest.raises(ValueError):
            grid_for_circuit(0)


class TestRingAndLine:
    def test_ring_default_matches_paper(self):
        topology = ring_topology()
        assert topology.num_units == 65
        assert topology.num_links == 65
        assert all(len(topology.neighbors(u)) == 2 for u in range(65))

    def test_small_ring_rejected(self):
        with pytest.raises(ValueError):
            ring_topology(2)

    def test_linear(self):
        topology = linear_topology(6)
        assert topology.num_links == 5
        assert len(topology.neighbors(0)) == 1


class TestHeavyHex:
    def test_default_size_is_65_units(self):
        topology = heavy_hex_topology()
        assert topology.num_units == 65

    def test_degree_at_most_three(self):
        topology = heavy_hex_topology()
        degrees = [len(topology.neighbors(u)) for u in range(topology.num_units)]
        assert max(degrees) <= 3

    def test_connected(self):
        topology = heavy_hex_topology(rows=3, row_length=7)
        assert nx.is_connected(topology.graph)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            heavy_hex_topology(rows=0)


# ----------------------------------------------------------------------
# the plain-data layout and its pickles
# ----------------------------------------------------------------------
OLD_LAYOUT = Path(__file__).parent / "golden" / "strategy_result_nx_topology.pkl"
OLD_LAYOUT_POINT = SweepPoint("qaoa_random", 8, "fq", device=DeviceSpec(kind="heavy_hex"), seed=0)


def _dumps(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _order(graph: nx.Graph) -> list:
    """Node order with each node's neighbour order, as networkx iterates them."""
    return [(node, list(graph.adj[node])) for node in graph]


def _plain_order(topology: Topology) -> list:
    """The topology's own node order with each node's neighbour order."""
    return [(unit, list(others)) for unit, others in topology._adjacency.items()]


def _rows(distances: dict) -> list:
    return [(source, list(row.items())) for source, row in distances.items()]


def _nx_grid(rows: int, cols: int) -> nx.Graph:
    """The grid the topology factory built with networkx before the plain layout."""
    graph = nx.Graph()
    for r in range(rows):
        for c in range(cols):
            graph.add_node(r * cols + c)
            if c + 1 < cols:
                graph.add_edge(r * cols + c, r * cols + c + 1)
            if r + 1 < rows:
                graph.add_edge(r * cols + c, (r + 1) * cols + c)
    return graph


def _scrambled_graph(seed: int) -> nx.Graph:
    """A connected random graph whose neighbour orders neither
    ``Graph.copy()`` nor a replay of its edges reproduces."""
    graph = nx.gnm_random_graph(14, 30, seed=seed)
    graph.add_edges_from(nx.utils.pairwise(range(14)))
    for a, b in list(graph.edges)[::3]:
        graph.remove_edge(a, b)
        graph.add_edge(b, a)
    assert _order(graph.copy()) != _order(graph)
    return graph


def _old_layout_graph() -> nx.Graph:
    """The heavy-hex ``nx.Graph`` the old-layout blob's topology pickled."""
    class KeepGraph(pickle.Unpickler):
        def find_class(self, module, name):
            cls = super().find_class(module, name)
            return _GraphHolder if cls is Topology else cls

    return KeepGraph(io.BytesIO(OLD_LAYOUT.read_bytes())).load().compiled.device.topology.graph


class _GraphHolder:
    """Stands in for ``Topology`` so the pickled graph stays as networkx loads it."""


def _assert_same_topology(topology: Topology, graph: nx.Graph) -> None:
    assert _plain_order(topology) == _order(graph)
    assert list(topology.graph) == list(graph)
    assert set(map(frozenset, topology.graph.edges)) == set(map(frozenset, graph.edges))
    assert topology.edges() == [tuple(sorted(edge)) for edge in graph.edges]
    assert _rows(topology.all_pairs_distances()) == _rows(
        dict(nx.all_pairs_shortest_path_length(graph))
    )
    eccentricity = nx.eccentricity(graph)
    best = min(eccentricity.values())
    assert topology.center_unit() == min(u for u, e in eccentricity.items() if e == best)
    for unit in graph:
        assert topology.neighbors(unit) == sorted(graph.neighbors(unit))


def _fq_hop_reference(topology: Topology, unit_c: int, unit_t: int) -> list[int]:
    """FQ's SWAP4 hop walk, one networkx BFS per neighbour as it used to be."""
    path = [unit_c]
    while not topology.are_adjacent(path[-1], unit_t):
        path.append(min(topology.neighbors(path[-1]),
                        key=lambda n: nx.shortest_path_length(topology.graph, n, unit_t)))
    return path


class TestPlainLayout:
    @pytest.mark.parametrize("build, reference", [
        (lambda: grid_topology(3, 4), lambda: _nx_grid(3, 4)),
        (lambda: grid_for_circuit(10), lambda: _nx_grid(4, 3)),
        (lambda: linear_topology(7), lambda: nx.path_graph(7)),
        (lambda: ring_topology(12), lambda: nx.cycle_graph(12)),
        (heavy_hex_topology, _old_layout_graph),
        (lambda: Topology(_scrambled_graph(5)), lambda: _scrambled_graph(5)),
    ], ids=["grid", "grid_for_circuit", "linear", "ring", "heavy_hex", "random"])
    def test_round_trips_node_and_neighbour_order(self, build, reference):
        graph = reference()
        topology = build()
        _assert_same_topology(topology, graph)
        _assert_same_topology(pickle.loads(_dumps(topology)), graph)

    def test_pickles_the_same_bytes_whatever_caches_were_built(self):
        topology = pickle.loads(_dumps(Topology(_scrambled_graph(2), name="random")))
        before = _dumps(topology)
        topology.all_pairs_distances()
        topology.graph
        assert _dumps(topology) == before
        assert b"networkx" not in before

    def test_accepts_an_adjacency_mapping(self):
        topology = Topology({0: [2, 1], 1: [0], 2: [0]}, name="star")
        assert _plain_order(topology) == [(0, [2, 1]), (1, [0]), (2, [0])]
        with pytest.raises(ValueError, match="symmetric"):
            Topology({0: [1], 1: []})

    @pytest.mark.parametrize("seed", range(4))
    def test_fq_hops_read_the_same_distances_as_a_bfs(self, seed):
        topology = Topology(_scrambled_graph(seed))
        distances = topology.all_pairs_distances()
        for unit_c in topology.graph:
            for unit_t in topology.graph:
                if unit_c == unit_t or topology.are_adjacent(unit_c, unit_t):
                    continue
                path = [unit_c]
                while not topology.are_adjacent(path[-1], unit_t):
                    path.append(min(topology.neighbors(path[-1]),
                                    key=lambda n: distances[n][unit_t]))
                assert path == _fq_hop_reference(topology, unit_c, unit_t)


def _fields(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def compile_digest(result) -> str:
    """The benchmark's compile-digest recipe for one result."""
    digest = hashlib.sha256()
    digest.update(repr((result.benchmark, result.num_qubits, result.strategy)).encode())
    digest.update(repr([_fields(op) for op in result.compiled.ops]).encode())
    digest.update(repr(_fields(result.report)).encode())
    return digest.hexdigest()


class TestOldLayoutBlob:
    """A result stored while ``Topology`` pickled its ``nx.Graph``."""

    @pytest.fixture(scope="class")
    def old(self):
        return pickle.loads(OLD_LAYOUT.read_bytes())

    @pytest.fixture(scope="class")
    def fresh(self):
        return OLD_LAYOUT_POINT.execute()

    def test_topology_matches_a_fresh_factory(self, old):
        topology, fresh = old.compiled.device.topology, heavy_hex_topology()
        assert topology.name == fresh.name
        assert topology.edges() == fresh.edges()
        assert [topology.neighbors(u) for u in range(65)] == [fresh.neighbors(u) for u in range(65)]
        assert _rows(topology.all_pairs_distances()) == _rows(fresh.all_pairs_distances())
        assert topology.center_unit() == fresh.center_unit()
        assert _plain_order(topology) == _plain_order(fresh)

    def test_digest_equals_a_fresh_compile(self, old, fresh):
        assert compile_digest(old) == compile_digest(fresh)
        assert old.report == fresh.report

    def test_verifier_finds_it_clean(self, old):
        report = verify_compiled(old.compiled)
        assert report.ok, report.findings

    def test_repickles_in_the_plain_layout(self, old, fresh):
        data = _dumps(old)
        assert b"networkx" not in data
        assert data == _dumps(fresh)

    def test_a_new_blob_repickles_byte_equal(self, fresh):
        blob = _dumps(fresh)
        loaded = pickle.loads(blob)
        assert _dumps(loaded) == blob
        loaded.compiled.device.topology.graph
        loaded.compiled.device.topology.all_pairs_distances()
        assert _dumps(loaded) == blob
