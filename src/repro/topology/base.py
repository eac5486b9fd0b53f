"""Topology abstraction and shared distance-matrix machinery.

A :class:`Topology` wraps the fixed (non-reconfigurable) network given as an
adjacency mapping: iterating it yields the nodes in order and ``g[node]``
yields a node's neighbours.  A plain ``{node: [neighbour, ...]}`` dict is one
such mapping and so is an ``nx.Graph``; the built-in topologies pass plain
dicts, so building one needs neither NetworkX nor SciPy.  The network may
contain auxiliary switch nodes (aggregation, spine, core); only *rack* nodes
are endpoints of traffic.  Distances between racks are computed once with a
NumPy BFS, level-synchronous from all racks at once, and stored in a dense
numpy matrix so that per-request lookups are O(1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import TopologyError
from ..types import NodePair, canonical_pair

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["Adjacency", "Topology", "build_distance_matrix"]

#: Node -> neighbours.  Iteration order is node order; ``nx.Graph`` qualifies.
Adjacency = Mapping[Hashable, Iterable[Hashable]]


def build_distance_matrix(graph: Adjacency, rack_nodes: Sequence[Hashable]) -> np.ndarray:
    """Compute the all-pairs shortest-path hop counts between rack nodes.

    Parameters
    ----------
    graph:
        The fixed network as an adjacency mapping, undirected and
        unweighted (a link listed under either endpoint counts both ways).
        It must be connected at least on the component containing all racks.
    rack_nodes:
        The graph nodes acting as racks, in the order in which they map to
        rack ids ``0 .. n-1``.

    Returns
    -------
    numpy.ndarray
        An ``(n, n)`` float array of hop counts, ``0`` on the diagonal.

    Raises
    ------
    TopologyError
        If some pair of racks is disconnected in the fixed network.
    """
    if len(rack_nodes) < 2:
        raise TopologyError("a topology needs at least two racks")
    index = {node: i for i, node in enumerate(graph)}
    try:
        rack_idx = np.array([index[r] for r in rack_nodes], dtype=np.intp)
        links = [(i, index[nbr]) for node, i in index.items() for nbr in graph[node]]
    except KeyError as exc:
        raise TopologyError(f"node {exc} not present in graph") from exc

    # Both directions of every link as sorted unique keys ``dst * n + src``:
    # the sources feeding each destination form one contiguous run.  (Not
    # np.unique: its first call imports numpy.ma, which costs more than the
    # whole BFS.)
    n = len(index)
    pairs = np.array(links, dtype=np.intp).reshape(-1, 2)
    keys = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    src = keys % n
    dst = keys // n
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    targets = dst[starts]

    n_racks = len(rack_idx)
    rows = np.arange(n_racks)
    dist = np.full((n_racks, n), np.inf)
    dist[rows, rack_idx] = 0.0
    reached = np.zeros((n_racks, n), dtype=bool)
    reached[rows, rack_idx] = True
    frontier = reached.copy()
    level = 0
    # One BFS level per pass, from every rack at once: a node joins the next
    # frontier when any of its neighbours is in the current one.
    while keys.size:
        level += 1
        hit = np.zeros_like(frontier)
        hit[:, targets] = np.logical_or.reduceat(frontier[:, src], starts, axis=1)
        hit &= ~reached
        if not hit.any():
            break
        dist[hit] = level
        reached |= hit
        frontier = hit
    dist = dist[:, rack_idx]
    if np.isinf(dist).any():
        raise TopologyError("fixed network does not connect all racks")
    return dist.astype(np.float64)


class Topology:
    """A fixed datacenter network with ``n`` rack endpoints.

    Parameters
    ----------
    graph:
        Adjacency mapping of the undirected fixed network (racks plus any
        internal switches); see :data:`Adjacency`.
    rack_nodes:
        Graph nodes that act as racks / ToR switches, in rack-id order.
    name:
        Human-readable topology name used in results and reports.
    """

    def __init__(self, graph: Adjacency, rack_nodes: Sequence[Hashable], name: str = "custom"):
        if len(graph) == 0:
            raise TopologyError("topology graph is empty")
        self._graph = graph
        self._rack_nodes = list(rack_nodes)
        self._name = name
        self._distances = build_distance_matrix(graph, self._rack_nodes)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Topology name."""
        return self._name

    @property
    def n_racks(self) -> int:
        """Number of racks (traffic endpoints)."""
        return len(self._rack_nodes)

    @property
    def graph(self) -> "nx.Graph":
        """The fixed network as an ``nx.Graph`` (read-only by convention).

        Built on first access, in the adjacency's node order, when the
        topology was given a plain mapping.
        """
        import networkx as nx

        if not isinstance(self._graph, nx.Graph):
            adjacency = self._graph
            graph = nx.Graph()
            graph.add_nodes_from(adjacency)
            graph.add_edges_from((u, v) for u in adjacency for v in adjacency[u])
            self._graph = graph
        return self._graph

    @property
    def rack_nodes(self) -> list[Hashable]:
        """Graph nodes acting as racks, indexed by rack id."""
        return list(self._rack_nodes)

    @property
    def distance_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` matrix of rack-to-rack hop counts."""
        return self._distances

    # ------------------------------------------------------------------ #
    # Distance queries
    # ------------------------------------------------------------------ #
    def distance(self, u: int, v: int) -> float:
        """Shortest-path hop count ``ℓ_{u,v}`` between racks ``u`` and ``v``."""
        n = self.n_racks
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"rack id out of range: ({u}, {v}) with n={n}")
        return float(self._distances[u, v])

    def pair_length(self, pair: NodePair) -> float:
        """Shortest-path length of a canonical node pair."""
        return self.distance(pair[0], pair[1])

    def distances_for(self, pairs: Iterable[NodePair]) -> np.ndarray:
        """Vectorised lookup of lengths for many pairs at once."""
        arr = np.asarray(list(pairs), dtype=np.intp)
        if arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        return self._distances[arr[:, 0], arr[:, 1]]

    def max_distance(self) -> float:
        """``ℓ_max`` — the largest rack-to-rack distance in the fixed network."""
        return float(self._distances.max())

    def mean_distance(self) -> float:
        """Average rack-to-rack distance over distinct pairs."""
        n = self.n_racks
        total = self._distances.sum()  # diagonal is zero
        return float(total / (n * (n - 1)))

    def diameter(self) -> float:
        """Alias of :meth:`max_distance` restricted to racks."""
        return self.max_distance()

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def all_pairs(self) -> list[NodePair]:
        """All canonical rack pairs."""
        n = self.n_racks
        return [(u, v) for u in range(n) for v in range(u + 1, n)]

    def validate_pair(self, u: int, v: int) -> NodePair:
        """Canonicalise and range-check a pair of rack ids."""
        if u == v:
            raise TopologyError(f"self-pair ({u}, {v}) is not routable")
        n = self.n_racks
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"rack id out of range: ({u}, {v}) with n={n}")
        return canonical_pair(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self._name!r} racks={self.n_racks}>"
