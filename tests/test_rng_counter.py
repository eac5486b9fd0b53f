"""Counter-RNG tier: Philox bit-identity, the rng_mode axis, and replay.

Three layers of certification for :mod:`repro.core.rng`:

* **Bit-identity of the pure-integer pipeline.**  ``counter_bounded_draw``
  reimplements NumPy's entire bounded-draw stack — Philox4x64-10 rounds,
  uint32 half-buffering, Lemire rejection, and the dispatch edge cases —
  in plain uint64 arithmetic.  It is pinned against a fresh
  ``Generator(Philox(...))`` at the same coordinates over seeded sweeps and
  hypothesis-driven coordinates, so any drift from NumPy's semantics fails
  here before it can corrupt a kernel.
* **The coordinate contract.**  Draws are pure functions of
  ``(root_seed, stream_id, request_index, draw_counter)``: replaying any
  coordinate replays the draw, changing any coordinate decorrelates, and
  child streams are order-independent.
* **Mode differentials.**  For the randomized algorithms
  (marking/random-eviction paging behind uniform and R-BMA), each rng mode
  must be self-consistent across request-by-request, batched, and streamed
  replay at checkpoint-straddling chunk sizes, also under the legacy
  ``"numba"`` backend name — while the two modes draw genuinely different
  randomness from the same seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MatchingConfig, SimulationConfig
from repro.core.registry import ALGORITHMS
from repro.core.rng import (
    DEFAULT_RNG_MODE,
    RNG_MODES,
    CounterRNG,
    counter_bounded_draw,
    derive_key,
    resolve_rng_mode,
)
from repro.errors import ConfigurationError
from repro.paging import RandomEvictionPaging, RandomizedMarking
from repro.paging.base import coerce_paging_rng
from repro.simulation import run_simulation
from repro.topology import LeafSpineTopology
from repro.traffic import make_workload
from repro.traffic.stream import TraceStream

pytestmark = pytest.mark.rng

_U64 = st.integers(min_value=0, max_value=2**64 - 1)


def _numpy_reference_draw(k0: int, k1: int, index: int, counter: int, n: int) -> int:
    """NumPy's own answer at the draw coordinates, via a fresh generator."""
    bitgen = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    state = bitgen.state
    state["state"]["counter"] = [0, counter, index, 0]
    bitgen.state = state
    gen = np.random.Generator(bitgen)
    dtype = np.uint64 if n > 2**63 else np.int64
    return int(gen.integers(n, dtype=dtype))


# --------------------------------------------------------------------------- #
# Bit-identity: pure-integer pipeline == NumPy == CounterRNG
# --------------------------------------------------------------------------- #
class TestBitIdentity:
    #: Bounds covering every branch of NumPy's bounded-integer dispatch:
    #: n == 1 consumes nothing, small bounds exercise 32-bit Lemire
    #: rejection (including powers of two, which never reject), 2**32 is
    #: the raw-uint32 case, bounds above it take the 64-bit Lemire path,
    #: and 2**64 is the raw-uint64 case.
    EDGE_BOUNDS = (
        1, 2, 3, 5, 7, 13, 64, 100, 101, 2**16, 2**31, 2**32 - 1, 2**32,
        2**32 + 1, 2**33, 2**48 + 12345, 2**63 - 1, 2**63, 2**64 - 1, 2**64,
    )

    def test_pure_integer_draw_matches_numpy_sweep(self):
        """Seeded sweep over keys x coordinates x every dispatch branch."""
        for seed in (0, 1, 97, 2**31, 2**64 - 1):
            k0, k1 = derive_key(seed, stream_id=seed % 5)
            for index in (0, 1, 17, 2**32, 2**64 - 1):
                for counter in (0, 3):
                    for n in self.EDGE_BOUNDS:
                        assert counter_bounded_draw(k0, k1, index, counter, n) == \
                            _numpy_reference_draw(k0, k1, index, counter, n), (
                                f"drift at key=({k0:#x},{k1:#x}) index={index} "
                                f"counter={counter} n={n}"
                            )

    def test_counter_rng_matches_pure_integer_draw(self):
        """The production (NumPy-backed) path equals the pure function."""
        crng = CounterRNG(123, stream_id=45)
        k0, k1 = crng.key
        for index in range(40):
            for n in (1, 2, 3, 12, 1000, 2**31):
                assert crng.integers(n, index) == \
                    counter_bounded_draw(k0, k1, index, 0, n)

    @given(seed=_U64, stream=_U64, index=_U64,
           counter=st.integers(0, 2**32), n=st.integers(1, 2**64))
    @settings(max_examples=150, deadline=None)
    def test_bit_identity_hypothesis(self, seed, stream, index, counter, n):
        """Arbitrary coordinates: pure pipeline == NumPy, always."""
        k0, k1 = derive_key(seed, stream)
        assert counter_bounded_draw(k0, k1, index, counter, n) == \
            _numpy_reference_draw(k0, k1, index, counter, n)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            counter_bounded_draw(1, 2, 0, 0, 0)


# --------------------------------------------------------------------------- #
# The coordinate contract
# --------------------------------------------------------------------------- #
class TestCoordinateContract:
    def test_replay_is_exact(self):
        """The same coordinates always reproduce the same draw."""
        a, b = CounterRNG(7), CounterRNG(7)
        draws = [(a.integers(100, i), b.integers(100, i)) for i in range(200)]
        assert all(x == y for x, y in draws)
        # Re-drawing out of order on the same instance replays too: there is
        # no carried state for the order to perturb.
        assert [a.integers(100, i) for i in reversed(range(200))] == \
            [d for d, _ in reversed(draws)]

    @given(seed=_U64, index_a=_U64, index_b=_U64)
    @settings(max_examples=100, deadline=None)
    def test_index_independence(self, seed, index_a, index_b):
        """Distinct request indices address decorrelated draws.

        With a 2**62 bound, a collision between two independent uniform
        draws has probability 2**-62 — a failure here means the index
        coordinate is being ignored, not bad luck.
        """
        crng = CounterRNG(seed)
        if index_a == index_b:
            assert crng.integers(2**62, index_a) == crng.integers(2**62, index_b)
        else:
            assert crng.integers(2**62, index_a) != crng.integers(2**62, index_b)

    def test_counter_coordinate_is_independent(self):
        crng = CounterRNG(11)
        draws = {crng.integers(2**62, 5, counter) for counter in range(32)}
        assert len(draws) == 32

    def test_streams_are_independent_and_order_free(self):
        root = CounterRNG(42)
        keys = {root.stream(node).key for node in range(64)}
        assert len(keys) == 64  # all distinct
        assert root.stream(3).key == root.stream(3).key  # pure function
        # Nested derivation stays collision-free without any registry.
        assert root.stream(1).stream(2).key != root.stream(2).stream(1).key

    def test_derive_key_sensitivity(self):
        base = derive_key(1000, 0)
        assert derive_key(1001, 0) != base
        assert derive_key(1000, 1) != base

    def test_entropy_seed_is_allowed(self):
        """root_seed=None draws fresh entropy (parity with default_rng)."""
        assert CounterRNG(None).key != CounterRNG(None).key


# --------------------------------------------------------------------------- #
# The rng_mode axis and the paging rng contract
# --------------------------------------------------------------------------- #
class TestModeResolution:
    def test_registry_contents(self):
        assert set(RNG_MODES.names()) >= {"counter", "stateful"}
        assert DEFAULT_RNG_MODE == "counter"

    def test_explicit_mode_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_RNG_MODE", "counter")
        assert resolve_rng_mode("stateful") == "stateful"

    def test_none_falls_back_to_env_then_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RNG_MODE", raising=False)
        assert resolve_rng_mode(None) == DEFAULT_RNG_MODE
        monkeypatch.setenv("REPRO_RNG_MODE", "stateful")
        assert resolve_rng_mode(None) == "stateful"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_rng_mode("philox5")
        with pytest.raises(ConfigurationError):
            MatchingConfig(b=2, alpha=4.0, rng_mode="no-such-mode")

    def test_config_roundtrip_omits_default(self):
        """rng_mode=None serialises exactly as before the axis existed."""
        assert "rng_mode" not in MatchingConfig(b=2, alpha=4.0).to_dict()
        assert MatchingConfig(b=2, alpha=4.0, rng_mode="stateful").to_dict()[
            "rng_mode"] == "stateful"


class TestPagingRngContract:
    def test_coercion_forms(self):
        gen, crng = coerce_paging_rng(None)
        assert isinstance(gen, np.random.Generator) and crng is None
        gen, crng = coerce_paging_rng(5)
        assert isinstance(gen, np.random.Generator) and crng is None
        explicit = np.random.default_rng(9)
        assert coerce_paging_rng(explicit) == (explicit, None)
        counter = CounterRNG(3)
        assert coerce_paging_rng(counter) == (None, counter)

    @pytest.mark.parametrize("bad", [1.5, "seed", True, np.float64(2.0), object()])
    def test_loose_rng_rejected(self, bad):
        """Floats, strings, bools, foreign objects: loud ConfigurationError.

        ``default_rng`` would silently accept e.g. ``True`` (as seed 1) and
        quietly change the stream; the pagers must refuse instead.
        """
        with pytest.raises(ConfigurationError, match="paging rng must be"):
            coerce_paging_rng(bad)
        with pytest.raises(ConfigurationError, match="paging rng must be"):
            RandomizedMarking(4, rng=bad)
        with pytest.raises(ConfigurationError, match="paging rng must be"):
            RandomEvictionPaging(4, rng=bad)

    @pytest.mark.parametrize("cls", [RandomizedMarking, RandomEvictionPaging])
    def test_counter_pager_replay_is_reset_invariant(self, cls):
        """reset() rewinds the draw index: a replayed request sequence
        reproduces the eviction choices exactly."""
        requests = [i % 7 for i in range(50)]

        def evictions(pager):
            out = []
            for page in requests:
                out.append(pager.request(page).evicted)
            return out

        pager = cls(3, rng=CounterRNG(17))
        first = evictions(pager)
        pager.reset()
        assert evictions(pager) == first


# --------------------------------------------------------------------------- #
# Mode differentials on the randomized algorithms
# --------------------------------------------------------------------------- #
N_NODES = 10
CHUNK_SIZES = (7, 173, 799, 4096)


def _trace():
    return make_workload("zipf", n_nodes=N_NODES, n_requests=800, seed=31,
                         exponent=1.3)


def _build(algorithm, rng_mode, paging_policy):
    topology = LeafSpineTopology(n_racks=N_NODES)
    return ALGORITHMS.build(
        algorithm, topology,
        MatchingConfig(b=3, alpha=4.0, rng_mode=rng_mode),
        61, paging_policy=paging_policy,
    )


def _totals(result, algo):
    return (
        result.total_routing_cost,
        result.total_reconfiguration_cost,
        result.matched_fraction,
        algo.matching.additions,
        algo.matching.removals,
        result.series.routing_cost.tolist(),
    )


def _run(algorithm, rng_mode, paging_policy, backend="fast", chunk_size=None):
    trace = _trace()
    if chunk_size is not None:
        trace = TraceStream.from_trace(trace, chunk_size=chunk_size)
    algo = _build(algorithm, rng_mode, paging_policy)
    result = run_simulation(
        algo, trace, SimulationConfig(checkpoints=5, matching_backend=backend)
    )
    return _totals(result, algo)


@pytest.mark.parametrize("rng_mode", ["stateful", "counter"])
@pytest.mark.parametrize("paging_policy", ["marking", "random"])
@pytest.mark.parametrize("algorithm", ["uniform", "rbma"])
class TestModeDifferentialMatrix:
    """Each mode is self-consistent across every replay shape."""

    def test_batched_replay_matches_reference(
        self, algorithm, rng_mode, paging_policy
    ):
        """reference (request-by-request) == fast (batched) per mode."""
        assert _run(algorithm, rng_mode, paging_policy, backend="reference") == \
            _run(algorithm, rng_mode, paging_policy, backend="fast")

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_streamed_replay_is_chunk_invariant(
        self, algorithm, rng_mode, paging_policy, chunk_size
    ):
        assert _run(algorithm, rng_mode, paging_policy, chunk_size=chunk_size) == \
            _run(algorithm, rng_mode, paging_policy)

    def test_numba_drive_path_matches(self, algorithm, rng_mode, paging_policy):
        """The legacy ``"numba"`` backend name replays bit-identically to
        ``"fast"``, materialized and streamed."""
        expected = _run(algorithm, rng_mode, paging_policy, backend="fast")
        assert _run(algorithm, rng_mode, paging_policy, backend="numba") == expected
        assert _run(algorithm, rng_mode, paging_policy, backend="numba",
                    chunk_size=173) == expected


@pytest.mark.parametrize("algorithm", ["uniform", "rbma"])
def test_modes_draw_different_randomness(algorithm):
    """Counter and stateful runs from one seed genuinely diverge — if they
    agreed, the mode switch would not be wired through to the pagers."""
    assert _run(algorithm, "counter", "marking") != \
        _run(algorithm, "stateful", "marking")


def test_env_mode_matches_explicit_config(monkeypatch):
    """REPRO_RNG_MODE=stateful (the CI tier knob) == rng_mode='stateful'."""
    explicit = _run("uniform", "stateful", "marking")
    monkeypatch.setenv("REPRO_RNG_MODE", "stateful")
    assert _run("uniform", None, "marking") == explicit


def test_rng_provenance_recorded():
    """RunResult.extra carries requested and effective mode for uses_rng
    algorithms, and nothing for deterministic ones."""
    trace = _trace()
    topology = LeafSpineTopology(n_racks=N_NODES)
    config = SimulationConfig(checkpoints=3)

    algo = ALGORITHMS.build(
        "uniform", topology, MatchingConfig(b=3, alpha=4.0), 5
    )
    extra = run_simulation(algo, trace, config).extra
    assert extra["rng_mode"] is None  # requested (library default)
    # Effective mode honours REPRO_RNG_MODE, so this stays true under the
    # stateful CI tier as well.
    assert extra["rng_kernel"] == resolve_rng_mode(None)

    algo = ALGORITHMS.build(
        "rbma", topology, MatchingConfig(b=3, alpha=4.0, rng_mode="stateful"), 5
    )
    extra = run_simulation(algo, trace, config).extra
    assert extra["rng_mode"] == "stateful"
    assert extra["rng_kernel"] == "stateful"

    algo = ALGORITHMS.build("bma", topology, MatchingConfig(b=3, alpha=4.0), 5)
    extra = run_simulation(algo, trace, config).extra
    assert "rng_mode" not in extra and "rng_kernel" not in extra


def test_fingerprints_split_by_effective_mode(monkeypatch):
    """Counter and stateful runs of a randomized algorithm must never share
    a store cell; deterministic algorithms carry no rng key at all."""
    from repro.experiments.specs import ExperimentSpec
    from repro.store.fingerprint import effective_kernels, fingerprint_spec

    def spec(name, rng_mode):
        return ExperimentSpec(
            algorithm={"name": name, "b": 3, "alpha": 4.0, "rng_mode": rng_mode},
            traffic={"name": "zipf",
                     "params": {"n_nodes": N_NODES, "n_requests": 100}},
            seed=1,
        )

    assert fingerprint_spec(spec("rbma", "counter")) != \
        fingerprint_spec(spec("rbma", "stateful"))
    # The digest covers the *effective* mode: an unpinned randomized spec
    # resolves through the environment knob, so a stateful-tier run cannot
    # collide with a counter-mode cache cell.
    monkeypatch.delenv("REPRO_RNG_MODE", raising=False)
    assert effective_kernels(spec("rbma", None))["rng_kernel"] == DEFAULT_RNG_MODE
    monkeypatch.setenv("REPRO_RNG_MODE", "stateful")
    assert effective_kernels(spec("rbma", None))["rng_kernel"] == "stateful"
    assert fingerprint_spec(spec("rbma", None)) != \
        fingerprint_spec(spec("rbma", DEFAULT_RNG_MODE))
    # Deterministic algorithms never gain the key, so flipping the library
    # default cannot invalidate their cached runs.
    assert "rng_kernel" not in effective_kernels(spec("bma", None))
