"""Tests for the Topology base class and distance-matrix construction."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import (
    FatTreeTopology,
    Topology,
    available_topologies,
    build_distance_matrix,
    make_topology,
)
from repro.topology.registry import TOPOLOGIES


def _path_graph_topology(n: int) -> Topology:
    g = nx.path_graph(n)
    return Topology(g, list(range(n)), name="path")


class TestBuildDistanceMatrix:
    def test_path_graph_distances(self):
        g = nx.path_graph(5)
        dist = build_distance_matrix(g, [0, 2, 4])
        assert dist.shape == (3, 3)
        assert dist[0, 1] == 2
        assert dist[0, 2] == 4
        assert dist[1, 2] == 2
        assert np.all(np.diag(dist) == 0)

    def test_symmetric(self):
        g = nx.erdos_renyi_graph(12, 0.4, seed=1)
        g.add_edges_from((i, i + 1) for i in range(11))  # ensure connectivity
        dist = build_distance_matrix(g, list(range(12)))
        assert np.allclose(dist, dist.T)

    def test_disconnected_racks_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(TopologyError):
            build_distance_matrix(g, [0, 2])

    def test_single_rack_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(TopologyError):
            build_distance_matrix(g, [0])


class TestTopology:
    def test_basic_accessors(self):
        topo = _path_graph_topology(6)
        assert topo.n_racks == 6
        assert topo.name == "path"
        assert topo.distance(0, 5) == 5
        assert topo.pair_length((1, 4)) == 3

    def test_distance_symmetric(self):
        topo = _path_graph_topology(6)
        assert topo.distance(2, 5) == topo.distance(5, 2)

    def test_distance_out_of_range(self):
        topo = _path_graph_topology(4)
        with pytest.raises(TopologyError):
            topo.distance(0, 4)

    def test_max_and_mean_distance(self):
        topo = _path_graph_topology(4)
        assert topo.max_distance() == 3
        # Pairs: (0,1)=1 (0,2)=2 (0,3)=3 (1,2)=1 (1,3)=2 (2,3)=1 -> mean 10/6
        assert topo.mean_distance() == pytest.approx(10 / 6)

    def test_diameter_alias(self):
        topo = _path_graph_topology(5)
        assert topo.diameter() == topo.max_distance() == 4

    def test_distances_for_vectorised(self):
        topo = _path_graph_topology(5)
        pairs = [(0, 1), (0, 4), (2, 3)]
        np.testing.assert_allclose(topo.distances_for(pairs), [1, 4, 1])

    def test_distances_for_empty(self):
        topo = _path_graph_topology(3)
        assert topo.distances_for([]).size == 0

    def test_all_pairs_count(self):
        topo = _path_graph_topology(5)
        assert len(topo.all_pairs()) == 10

    def test_validate_pair_canonicalises(self):
        topo = _path_graph_topology(5)
        assert topo.validate_pair(4, 1) == (1, 4)

    def test_validate_pair_rejects_self(self):
        topo = _path_graph_topology(5)
        with pytest.raises(TopologyError):
            topo.validate_pair(2, 2)

    def test_validate_pair_rejects_out_of_range(self):
        topo = _path_graph_topology(5)
        with pytest.raises(TopologyError):
            topo.validate_pair(0, 7)

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            Topology(nx.Graph(), [], name="empty")

    def test_distance_matrix_shape(self):
        topo = _path_graph_topology(7)
        assert topo.distance_matrix.shape == (7, 7)


# --------------------------------------------------------------------------- #
# Differential: the NumPy BFS against NetworkX's shortest paths
# --------------------------------------------------------------------------- #

#: Two sizes of every registered topology (canonical names).
REGISTERED_SIZES = {
    "fat-tree": ({"n_racks": 8}, {"n_racks": 50}),
    "leaf-spine": ({"n_racks": 5, "n_spines": 1}, {"n_racks": 12, "n_spines": 4}),
    "star": ({"n_racks": 4}, {"n_racks": 9, "hub_is_rack": True}),
    "ring": ({"n_racks": 3}, {"n_racks": 11}),
    "torus": ({"rows": 2, "cols": 3}, {"rows": 4, "cols": 5}),
    "hypercube": ({"dimension": 1}, {"dimension": 5}),
    "expander": ({"n_racks": 10, "degree": 3, "seed": 1}, {"n_racks": 24, "degree": 4, "seed": 2}),
}


def _nx_distances(graph: nx.Graph, racks) -> np.ndarray:
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    return np.array([[lengths[u][v] for v in racks] for u in racks], dtype=np.float64)


def _random_switch_network(seed: int) -> tuple[dict, list]:
    """A random connected graph whose racks are a shuffled subset of its nodes.

    Each link is listed under one endpoint only, so the BFS must treat the
    mapping as undirected.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    g = nx.Graph((i, int(rng.integers(0, i))) for i in range(1, n))  # random tree
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.choice(n, size=2, replace=False).tolist()
        g.add_edge(u, v)
    names = {i: f"sw-{i}" for i in range(n)}
    adj = {names[u]: [names[v] for v in g[u] if v > u] for u in g}
    racks = [names[i] for i in rng.permutation(n)[: int(rng.integers(2, n + 1))].tolist()]
    return adj, racks


class TestDistanceMatrixDifferential:
    def test_table_covers_every_registered_topology(self):
        canonical = {TOPOLOGIES.canonical(name) for name in available_topologies()}
        assert canonical == set(REGISTERED_SIZES)

    @pytest.mark.parametrize(
        "name, params",
        [(name, params) for name, sizes in REGISTERED_SIZES.items() for params in sizes],
    )
    def test_registered_topologies_match_networkx(self, name, params):
        topo = make_topology(name, **params)
        dist = topo.distance_matrix
        assert dist.dtype == np.float64
        np.testing.assert_array_equal(dist, _nx_distances(topo.graph, topo.rack_nodes))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_switch_networks_match_networkx(self, seed):
        adj, racks = _random_switch_network(seed)
        topo = Topology(adj, racks)
        expected = _nx_distances(topo.graph, racks)
        np.testing.assert_array_equal(topo.distance_matrix, expected)
        # An nx.Graph of the same network goes through the same code path.
        np.testing.assert_array_equal(build_distance_matrix(topo.graph, racks), expected)

    def test_isolated_non_rack_node_is_ignored(self):
        adj = {"a": ["s"], "s": ["a", "b"], "b": ["s"], "lonely": []}
        dist = build_distance_matrix(adj, ["b", "a"])
        np.testing.assert_array_equal(dist, [[0.0, 2.0], [2.0, 0.0]])

    def test_disconnected_racks_rejected(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        with pytest.raises(TopologyError, match="does not connect"):
            build_distance_matrix(adj, [0, 2])

    def test_isolated_rack_rejected(self):
        with pytest.raises(TopologyError, match="does not connect"):
            build_distance_matrix({0: [1], 1: [0], 2: []}, [0, 1, 2])

    def test_single_rack_rejected(self):
        with pytest.raises(TopologyError, match="at least two racks"):
            build_distance_matrix({0: [1], 1: [0]}, [0])

    def test_unknown_rack_rejected(self):
        with pytest.raises(TopologyError, match="not present"):
            build_distance_matrix({0: [1], 1: [0]}, [0, 7])


class TestGraphView:
    def test_fat_tree_graph_keeps_node_order_and_edges(self):
        graph = FatTreeTopology(k=4).graph
        assert isinstance(graph, nx.Graph)
        assert graph.number_of_nodes() == 20
        assert graph.number_of_edges() == 32
        core = [f"core-{i}-{j}" for i in range(2) for j in range(2)]
        pods = [
            f"{layer}-{pod}-{i}" for pod in range(4) for layer in ("agg", "edge") for i in range(2)
        ]
        assert list(graph.nodes()) == core + pods

    def test_plain_mapping_graph_built_once(self):
        topo = Topology({"x": ["y"], "y": ["x"]}, ["x", "y"])
        graph = topo.graph
        assert isinstance(graph, nx.Graph)
        assert list(graph.nodes()) == ["x", "y"]
        assert list(graph.edges()) == [("x", "y")]
        assert topo.graph is graph

    def test_networkx_input_returned_as_is(self):
        g = nx.path_graph(4)
        assert Topology(g, [0, 3]).graph is g
