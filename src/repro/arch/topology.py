"""Coupling-graph topologies.

The evaluation uses three families of devices (Section 6.1):

* square grid meshes sized "just large enough" for the circuit,
* the 65-unit IBM Ithaca-style heavy-hex lattice,
* a 65-unit ring.

All topologies are undirected graphs whose nodes are physical units
(transmons) numbered ``0..V-1``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping


class Topology:
    """An undirected coupling graph over physical units.

    The topology is plain data: each unit's neighbours, in order.  Its
    :class:`networkx.Graph` view (:attr:`graph`) and hop-distance table
    (:meth:`all_pairs_distances`) are derived caches, built on first use
    and left out of pickles, so a stored result unpickles without
    networkx.  Blobs written while a topology pickled its ``nx.Graph``
    still load.

    Parameters
    ----------
    graph:
        A connected :class:`networkx.Graph`, or a mapping from each unit to
        its neighbours, whose nodes are consecutive integers starting at
        zero.  Node order and each node's neighbour order are kept, as
        networkx iterates them; node and edge attributes are not.
    name:
        Human-readable topology name used in reports.
    """

    def __init__(self, graph, name: str = "custom") -> None:
        adjacency = _adjacency_of(graph)
        if not adjacency:
            raise ValueError("a topology needs at least one unit")
        if sorted(adjacency) != list(range(len(adjacency))):
            raise ValueError("topology nodes must be consecutive integers starting at 0")
        if any(unit not in adjacency.get(other, ())
               for unit, others in adjacency.items() for other in others):
            raise ValueError("topology adjacency must be symmetric")
        if len(_bfs(adjacency, next(iter(adjacency)))) != len(adjacency):
            raise ValueError("topology must be connected")
        self.name = name
        self._adjacency = adjacency

    def __getstate__(self) -> dict:
        return {"name": self.name, "_adjacency": self._adjacency}

    def __setstate__(self, state: dict) -> None:
        if "graph" in state:  # pickled when a topology held its nx.Graph
            state = {"name": state["name"], "_adjacency": _adjacency_of(state["graph"])}
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The coupling graph as a :class:`networkx.Graph` (built on first use).

        Its nodes come in the topology's order; its neighbour order need
        not match, so order-sensitive code reads the topology itself.
        """
        graph = self.__dict__.get("_graph")
        if graph is None:
            import networkx as nx

            graph = self._graph = nx.Graph()
            graph.add_nodes_from(self._adjacency)
            graph.add_edges_from(self.edges())
        return graph

    @property
    def num_units(self) -> int:
        """Number of physical units."""
        return len(self._adjacency)

    @property
    def num_links(self) -> int:
        """Number of coupler links."""
        return sum(map(len, self._adjacency.values())) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All coupler links as sorted tuples, in ``nx.Graph.edges`` order."""
        edges, seen = [], set()
        for unit, others in self._adjacency.items():
            edges.extend(tuple(sorted((unit, other))) for other in others if other not in seen)
            seen.add(unit)
        return edges

    def neighbors(self, unit: int) -> list[int]:
        """Units directly coupled to ``unit``."""
        return sorted(self._adjacency[unit])

    def are_adjacent(self, a: int, b: int) -> bool:
        """Whether two units share a coupler."""
        return b in self._adjacency.get(a, ())

    def shortest_path_length(self, a: int, b: int) -> int:
        """Hop distance between two units."""
        return self.all_pairs_distances()[a][b]

    def all_pairs_distances(self) -> dict[int, dict[int, int]]:
        """Hop distance between every pair of units (cached; do not mutate).

        Each row lists units in breadth-first order from its source, as
        ``nx.all_pairs_shortest_path_length`` does.
        """
        distances = self.__dict__.get("_distances")
        if distances is None:
            distances = self._distances = {
                unit: _bfs(self._adjacency, unit) for unit in self._adjacency
            }
        return distances

    def center_unit(self) -> int:
        """The most central unit (minimum eccentricity, ties broken by index).

        The mapping pass places the most-connected program qubit here
        (Section 4.2).
        """
        eccentricities = {unit: max(row.values())
                          for unit, row in self.all_pairs_distances().items()}
        best = min(eccentricities.values())
        return min(unit for unit, value in eccentricities.items() if value == best)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(name={self.name!r}, units={self.num_units}, links={self.num_links})"


def _adjacency_of(graph) -> dict[int, tuple[int, ...]]:
    """Each node's neighbours in iteration order, from a graph or a mapping."""
    adjacency: Mapping = getattr(graph, "adj", graph)
    return {unit: tuple(others) for unit, others in adjacency.items()}


def _bfs(adjacency: Mapping[int, Iterable[int]], source: int) -> dict[int, int]:
    """Hop distance to every unit reachable from ``source``, in BFS order."""
    distances = {source: 0}
    frontier = [source]
    while frontier:
        following = []
        for unit in frontier:
            for other in adjacency[unit]:
                if other not in distances:
                    distances[other] = distances[unit] + 1
                    following.append(other)
        frontier = following
    return distances


class _Builder:
    """Adjacency grown edge by edge in ``nx.Graph.add_edge`` order."""

    def __init__(self) -> None:
        self.adjacency: dict[int, dict[int, None]] = {}

    def add_node(self, unit: int) -> None:
        self.adjacency.setdefault(unit, {})

    def add_edge(self, a: int, b: int) -> None:
        self.add_node(a)
        self.add_node(b)
        self.adjacency[a][b] = None
        self.adjacency[b][a] = None


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def grid_topology(rows: int, cols: int) -> Topology:
    """A ``rows x cols`` rectangular mesh with nearest-neighbour couplers."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    graph = _Builder()
    def node(r: int, c: int) -> int:
        return r * cols + c
    for r in range(rows):
        for c in range(cols):
            graph.add_node(node(r, c))
            if c + 1 < cols:
                graph.add_edge(node(r, c), node(r, c + 1))
            if r + 1 < rows:
                graph.add_edge(node(r, c), node(r + 1, c))
    return Topology(graph.adjacency, name=f"grid-{rows}x{cols}")


def grid_for_circuit(num_qubits: int) -> Topology:
    """Grid mesh "just large enough" for a circuit (Section 6.1).

    Dimensions are ``ceil(sqrt(n)) x ceil(n / ceil(sqrt(n)))`` where ``n`` is
    the number of circuit qubits, matching the paper's construction.
    """
    if num_qubits < 1:
        raise ValueError("a circuit needs at least one qubit")
    rows = math.ceil(math.sqrt(num_qubits))
    cols = math.ceil(num_qubits / rows)
    return grid_topology(rows, cols)


def linear_topology(num_units: int) -> Topology:
    """A 1-D chain of units."""
    if num_units < 1:
        raise ValueError("need at least one unit")
    graph = _Builder()
    for unit in range(num_units):
        graph.add_node(unit)
    for unit in range(num_units - 1):
        graph.add_edge(unit, unit + 1)
    return Topology(graph.adjacency, name=f"linear-{num_units}")


def ring_topology(num_units: int = 65) -> Topology:
    """A ring of units (default 65, matching the paper's ring baseline)."""
    if num_units < 3:
        raise ValueError("a ring needs at least three units")
    graph = _Builder()
    for unit in range(num_units):
        graph.add_node(unit)
    for unit in range(num_units):
        graph.add_edge(unit, (unit + 1) % num_units)
    return Topology(graph.adjacency, name=f"ring-{num_units}")


def heavy_hex_topology(rows: int = 5, row_length: int = 11) -> Topology:
    """An IBM Ithaca-style heavy-hex lattice (defaults give 65 units).

    The lattice consists of ``rows`` horizontal lines of ``row_length``
    units each; consecutive lines are joined by bridge units placed every
    four columns, with the bridge columns offset by two between alternating
    gaps.  With the default parameters this yields ``5 * 11 + 10 = 65``
    units of degree at most three, the same scale and connectivity class as
    the 65-qubit IBM Ithaca device used in the paper.
    """
    if rows < 1 or row_length < 1:
        raise ValueError("heavy-hex dimensions must be positive")
    graph = _Builder()
    next_index = 0
    row_nodes: list[list[int]] = []
    for _ in range(rows):
        line = []
        for _ in range(row_length):
            line.append(next_index)
            graph.add_node(next_index)
            next_index += 1
        for a, b in zip(line, line[1:]):
            graph.add_edge(a, b)
        row_nodes.append(line)
    for gap in range(rows - 1):
        # Even gaps anchor bridges at columns 0, 4, 8, ...; odd gaps are offset
        # by two and stop short of the final column, matching the staggered
        # heavy-hex pattern.  The defaults (5 rows of 11) give exactly 65 units.
        offsets = range(0, row_length, 4) if gap % 2 == 0 else range(2, row_length - 1, 4)
        for column in offsets:
            if column >= row_length:
                continue
            bridge = next_index
            graph.add_node(bridge)
            next_index += 1
            graph.add_edge(row_nodes[gap][column], bridge)
            graph.add_edge(bridge, row_nodes[gap + 1][column])
    return Topology(graph.adjacency, name=f"heavy-hex-{next_index}")
