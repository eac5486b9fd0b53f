"""Hypercube topology.

Racks are the vertices of a ``d``-dimensional boolean hypercube (as in BCube /
MDCube-style server-centric designs referenced in the paper's related work).
Distances are Hamming distances, giving a moderate diameter ``d = log2(n)``.
"""

from __future__ import annotations

import itertools

from ..errors import TopologyError
from .base import Topology

__all__ = ["HypercubeTopology"]


class HypercubeTopology(Topology):
    """``d``-dimensional hypercube with ``2**d`` racks."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise TopologyError(f"hypercube dimension must be >= 1, got {dimension}")
        if dimension > 16:
            raise TopologyError(f"hypercube dimension {dimension} is unreasonably large")
        # Bit tuples in lexicographic order; neighbours differ in one bit.
        nodes = list(itertools.product((0, 1), repeat=dimension))
        adj = {
            v: [v[:i] + (1 - v[i],) + v[i + 1:] for i in range(dimension)] for v in nodes
        }
        if dimension == 1:  # named 0 and 1, not 1-tuples, as in nx.hypercube_graph(1)
            nodes, adj = [0, 1], {0: [1], 1: [0]}
        self._dimension = dimension
        super().__init__(adj, nodes, name=f"hypercube(d={dimension})")

    @property
    def dimension(self) -> int:
        """Number of hypercube dimensions."""
        return self._dimension
