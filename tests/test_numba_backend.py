"""The legacy ``"numba"`` matching backend name: a silent alias of ``"fast"``.

The compiled tier it once named is retired.  The name stays registered so
stored configs and specs naming it still validate and run: it builds the
fast kernel, runs bit-identically to ``"fast"``, and records both the
requested name and the kernel that ran in ``RunResult.extra``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.config import MatchingConfig, SimulationConfig
from repro.core import RBMA, BMA
from repro.matching import FastBMatching, MATCHING_BACKENDS
from repro.simulation import run_simulation
from repro.topology import LeafSpineTopology
from repro.traffic import zipf_pair_trace


def test_numba_is_always_a_registered_backend():
    assert MATCHING_BACKENDS["numba"] is FastBMatching
    assert SimulationConfig(matching_backend="numba").matching_backend == "numba"


def _run(algorithm_cls, backend: str, seed: int = 11):
    topo = LeafSpineTopology(n_racks=8)
    trace = zipf_pair_trace(n_nodes=8, n_requests=300, seed=3)
    algo = algorithm_cls(topo, MatchingConfig(b=2, alpha=4.0), rng=seed)
    result = run_simulation(
        algo, trace, SimulationConfig(checkpoints=5, matching_backend=backend)
    )
    return algo, result


@pytest.mark.parametrize("algorithm_cls", [RBMA, BMA])
def test_fallback_run_is_bit_identical_to_fast(algorithm_cls):
    """A numba-backend run IS a fast-backend run, and says so silently."""
    algo_fast, res_fast = _run(algorithm_cls, "fast")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        algo_numba, res_numba = _run(algorithm_cls, "numba")
    assert type(algo_numba.matching) is FastBMatching
    assert res_numba.total_routing_cost == res_fast.total_routing_cost
    assert res_numba.total_reconfiguration_cost == res_fast.total_reconfiguration_cost
    assert np.array_equal(res_numba.series.routing_cost, res_fast.series.routing_cost)
    assert sorted(algo_numba.matching.edges) == sorted(algo_fast.matching.edges)
    # Provenance: the result records both the request and the reality.
    assert res_numba.extra["matching_backend"] == "numba"
    assert res_numba.extra["matching_kernel"] == "fast"
    assert res_fast.extra["matching_kernel"] == "fast"


def test_hybrid_experts_stay_on_backend_after_reset():
    """Regression: reset() used to drop the experts back to the default kernel.

    The engine's rebind is a no-op after reset (the combiner still reports
    its rebound backend), so ``_make_experts`` must rebind the fresh
    experts itself — otherwise a reference-backend run would silently drive
    its experts on the fast kernel.
    """
    from repro.core import HybridBMA

    topo = LeafSpineTopology(n_racks=8)
    algo = HybridBMA(topo, MatchingConfig(b=2, alpha=4.0), rng=1)
    algo.rebind_matching_backend("reference")
    assert algo._robust.matching.backend_name == "reference"
    algo.reset()
    assert algo.matching.backend_name == "reference"
    assert algo._robust.matching.backend_name == "reference"
    assert algo._predictive.matching.backend_name == "reference"


def test_rbma_interleaved_serve_and_serve_batch_on_numba():
    """serve() and serve_batch() share R-BMA's counter store (legacy name)."""
    topo = LeafSpineTopology(n_racks=8)
    trace = zipf_pair_trace(n_nodes=8, n_requests=200, seed=4)

    mixed = RBMA(topo, MatchingConfig(b=2, alpha=4.0), rng=9)
    mixed.rebind_matching_backend("numba")
    for request in trace[0:30].requests():
        mixed.serve(request)
    mixed.serve_batch(trace[30:150])
    for request in trace[150:200].requests():
        mixed.serve(request)

    sequential = RBMA(topo, MatchingConfig(b=2, alpha=4.0), rng=9)
    for request in trace.requests():
        sequential.serve(request)

    assert mixed.total_routing_cost == sequential.total_routing_cost
    assert mixed.total_reconfiguration_cost == sequential.total_reconfiguration_cost
    assert sorted(mixed.matching.edges) == sorted(sequential.matching.edges)
    pair = trace[199].src, trace[199].dst
    pair = (min(pair), max(pair))
    assert mixed.pending_count(pair) == sequential.pending_count(pair)

    # reset() must zero the counters too: a second identical run matches.
    mixed.reset()
    for request in trace.requests():
        mixed.serve(request)
    assert mixed.requests_served == sequential.requests_served
