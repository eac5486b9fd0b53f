"""Pin of a figure-sized SO-BMA blossom solve.

The array kernel must return the *same* matchings as NetworkX, not merely
matchings of equal weight.  ``tests/test_solver_backends.py`` checks that
against the ``nx`` oracle on instances small enough for the default suite;
at figure size (100 racks, a few thousand demand pairs, 18 rounds) the
oracle is too slow for tier-1, so this test pins a digest of the rounds
instead.  The digest was recorded with the array kernel before its
neighbour-scan rewrite and checked equal to the ``nx`` rounds there, so a
kernel change that alters any tie-break on this instance fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.matching import solve_b_rounds, solver_cache_clear

pytestmark = pytest.mark.solver

#: blake2b-128 of the sorted per-round matchings of :func:`_fig_sized_demand`
#: at ``b = 18``.
FIG_SIZED_DIGEST = "c9d1e8a5e8176f79b8f4b478b52fd0b2"


def _fig_sized_demand():
    """Seeded 100-node demand with 3 600 pairs in random insertion order.

    Weights are small whole numbers (as floats, like aggregated request
    counts), so ties between equal-slack edges are common and the
    insertion-order tie-breaking is exercised.
    """
    rng = np.random.default_rng(2023)
    n = 100
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    order = rng.permutation(len(pairs))[:3600]
    return {pairs[i]: float(rng.integers(1, 64)) for i in order}, n


def _rounds_digest(cumulative) -> str:
    digest = hashlib.blake2b(digest_size=16)
    previous = set()
    for union in cumulative:
        digest.update(repr(sorted(union - previous)).encode())
        previous = union
    return digest.hexdigest()


def test_fig_sized_solve_is_pinned():
    weights, n = _fig_sized_demand()
    solver_cache_clear()
    try:
        rounds = solve_b_rounds(weights, n, 18, backend="array")
    finally:
        solver_cache_clear()
    assert len(rounds) == 18
    assert [len(r) for r in rounds] == [50 * (i + 1) for i in range(18)]
    assert _rounds_digest(rounds) == FIG_SIZED_DIGEST
