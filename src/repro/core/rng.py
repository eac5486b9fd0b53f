"""Counter-based (stateless) RNG for the randomized paging tier.

The paper's randomized marking pager needs one uniform bounded draw per
eviction.  The legacy implementation consumes a *stateful*
:class:`numpy.random.Generator`, so replay code must carry generator state
across chunk boundaries (the reason streamed replay of randomized
algorithms historically needed fork bookkeeping).

:class:`CounterRNG` removes the state.  Every draw is a pure function of
four integer coordinates::

    (root_seed, stream_id, request_index, draw_counter)

mapped onto NumPy's counter-based Philox4x64-10 bit generator: the 128-bit
Philox key is derived from ``(root_seed, stream_id)`` (splitmix64 mixing)
and the 256-bit Philox counter block encodes ``(draw_counter,
request_index)``, so the draw equals what a fresh
``Generator(Philox(counter=..., key=...)).integers(n)`` returns.  Replaying
any coordinate replays the draw; changing any coordinate gives an
independent stream.  Chunk size cannot matter because there is no carried
generator state at all.

Two bit-identical implementations are provided:

* :meth:`CounterRNG.integers` — the production path.  It drives NumPy's own
  C Philox implementation by resetting the bit generator's state to the
  draw coordinates before each draw, so per-draw cost stays at C speed.
* :func:`counter_bounded_draw` — a pure-integer reimplementation of the
  whole pipeline (Philox4x64-10 rounds, uint32 half-buffering, Lemire
  bounded rejection), the independent oracle for the production path.  It
  is pinned bit-identical to the NumPy path by test
  (``tests/test_rng_counter.py``), including the ``n == 1`` (consumes
  nothing), ``n == 2**32`` (raw uint32) and ``n == 2**64`` (raw uint64)
  edge cases of NumPy's bounded-integer dispatch.

The ``rng_mode`` axis (:data:`RNG_MODES`, mirroring
``MATCHING_BACKENDS``/``SOLVER_BACKENDS``) selects between ``"counter"``
(this module, the default) and ``"stateful"`` (the legacy generator, kept
as the reference).  :func:`resolve_rng_mode` resolves a requested mode —
``None`` falls back to the ``REPRO_RNG_MODE`` environment variable and
then :data:`DEFAULT_RNG_MODE` — and is re-read per call so CI tiers can
flip the env var without reimporting.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from ..experiments.registry import Registry

__all__ = [
    "RNG_MODES",
    "DEFAULT_RNG_MODE",
    "CounterRNG",
    "counter_bounded_draw",
    "derive_key",
    "resolve_rng_mode",
]

_MASK64 = (1 << 64) - 1


# --------------------------------------------------------------------------- #
# Key derivation (plain Python ints; construction-time only)
# --------------------------------------------------------------------------- #
def _splitmix64(x: int) -> int:
    """One splitmix64 finalisation step (full-avalanche 64-bit mixing)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(root_seed: int, stream_id: int = 0) -> Tuple[int, int]:
    """The 128-bit Philox key of stream ``stream_id`` under ``root_seed``.

    Splitmix64 mixing of both coordinates: any change to either produces an
    unrelated key, and the map is a pure function, so the same coordinates
    always address the same stream.
    """
    h = _splitmix64(root_seed & _MASK64)
    h = _splitmix64(h ^ _splitmix64(stream_id & _MASK64))
    k0 = _splitmix64(h)
    k1 = _splitmix64(k0 ^ h)
    return k0, k1


def _combine_streams(parent: int, child: int) -> int:
    """Derived stream id of child ``child`` under stream ``parent``.

    Hash-chained so nested ``stream()`` calls (algorithm -> per-node pager)
    stay collision-free without any registry of allocated ids.
    """
    return _splitmix64((parent & _MASK64) ^ _splitmix64((child & _MASK64) ^ 0xA5A5A5A5A5A5A5A5))


# --------------------------------------------------------------------------- #
# Pure-integer Philox + Lemire draw (the test oracle)
# --------------------------------------------------------------------------- #
# Everything below operates exclusively on uint64 numpy scalars (inputs are
# cast once at the public entry point); the intentional wraparound of that
# arithmetic is silenced via ``np.errstate`` in the wrapper.

_U64_0 = np.uint64(0)
_U64_1 = np.uint64(1)
_U64_32 = np.uint64(32)
_U64_M32 = np.uint64(0xFFFFFFFF)
_U64_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
#: Philox4x64 round multipliers and Weyl key increments (Random123 constants).
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)


def _mulhilo64(a, b):
    """128-bit product of two uint64s as ``(high, low)`` uint64 words."""
    alo = a & _U64_M32
    ahi = a >> _U64_32
    blo = b & _U64_M32
    bhi = b >> _U64_32
    ll = alo * blo
    lh = alo * bhi
    hl = ahi * blo
    hh = ahi * bhi
    t = (ll >> _U64_32) + (lh & _U64_M32) + (hl & _U64_M32)
    lo = (ll & _U64_M32) | ((t & _U64_M32) << _U64_32)
    hi = hh + (lh >> _U64_32) + (hl >> _U64_32) + (t >> _U64_32)
    return hi, lo


def _philox_block(c0, c1, c2, c3, k0, k1):
    """One Philox4x64-10 block: 10 rounds, key bumped between rounds."""
    x0, x1, x2, x3 = c0, c1, c2, c3
    for r in range(10):
        hi0, lo0 = _mulhilo64(_PHILOX_M0, x0)
        hi1, lo1 = _mulhilo64(_PHILOX_M1, x2)
        x0 = hi1 ^ x1 ^ k0
        x1 = lo1
        x2 = hi0 ^ x3 ^ k1
        x3 = lo0
        if r < 9:
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
    return x0, x1, x2, x3


def _next_u64(blk, widx, w0, w1, w2, w3, c1, c2, k0, k1):
    """Next uint64 of the draw's Philox stream (regenerating blocks as needed).

    NumPy's Philox state pre-increments the counter word ``c0`` before
    generating a block, so the first block of a draw uses ``c0 = 1``.
    """
    if widx == 4:
        blk = blk + _U64_1
        w0, w1, w2, w3 = _philox_block(blk, c1, c2, _U64_0, k0, k1)
        widx = 0
    if widx == 0:
        out = w0
    elif widx == 1:
        out = w1
    elif widx == 2:
        out = w2
    else:
        out = w3
    return out, blk, widx + 1, w0, w1, w2, w3


def _counter_draw(k0, k1, c1, c2, rng):
    """Bounded draw in ``[0, rng]`` (inclusive), NumPy-dispatch-exact.

    Replicates ``Generator.integers`` over a fresh Philox stream at counter
    ``[0, c1, c2, 0]``: ``rng == 0`` consumes nothing; ``rng == 2**32 - 1``
    is a raw uint32; ``rng < 2**32 - 1`` runs 32-bit Lemire rejection over
    half-buffered uint32s (low half first); ``rng == 2**64 - 1`` is a raw
    uint64; anything else runs 64-bit Lemire rejection.
    """
    if rng == _U64_0:
        return _U64_0
    blk = _U64_0
    widx = 4
    w0 = _U64_0
    w1 = _U64_0
    w2 = _U64_0
    w3 = _U64_0
    if rng == _U64_M64:
        out, blk, widx, w0, w1, w2, w3 = _next_u64(
            blk, widx, w0, w1, w2, w3, c1, c2, k0, k1
        )
        return out
    if rng <= _U64_M32:
        v, blk, widx, w0, w1, w2, w3 = _next_u64(
            blk, widx, w0, w1, w2, w3, c1, c2, k0, k1
        )
        cur = v & _U64_M32
        half = v >> _U64_32
        has_half = 1
        if rng == _U64_M32:
            return cur
        rng_excl = rng + _U64_1
        m = cur * rng_excl
        leftover = m & _U64_M32
        if leftover < rng_excl:
            threshold = (_U64_M32 - rng) % rng_excl
            while leftover < threshold:
                if has_half == 1:
                    cur = half
                    has_half = 0
                else:
                    v, blk, widx, w0, w1, w2, w3 = _next_u64(
                        blk, widx, w0, w1, w2, w3, c1, c2, k0, k1
                    )
                    cur = v & _U64_M32
                    half = v >> _U64_32
                    has_half = 1
                m = cur * rng_excl
                leftover = m & _U64_M32
        return m >> _U64_32
    rng_excl = rng + _U64_1
    v, blk, widx, w0, w1, w2, w3 = _next_u64(
        blk, widx, w0, w1, w2, w3, c1, c2, k0, k1
    )
    hi, lo = _mulhilo64(v, rng_excl)
    if lo < rng_excl:
        threshold = (_U64_M64 - rng) % rng_excl
        while lo < threshold:
            v, blk, widx, w0, w1, w2, w3 = _next_u64(
                blk, widx, w0, w1, w2, w3, c1, c2, k0, k1
            )
            hi, lo = _mulhilo64(v, rng_excl)
    return hi


def counter_bounded_draw(k0: int, k1: int, index: int, counter: int, n: int) -> int:
    """Pure-integer draw in ``[0, n)`` for key ``(k0, k1)`` at the coordinates.

    Bit-identical to :meth:`CounterRNG.integers` on the same key — certified
    by the pinned sweep in ``tests/test_rng_counter.py``.  This wrapper only
    casts to uint64 and silences numpy's intentional wraparound warnings.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    args = (
        np.uint64(k0 & _MASK64),
        np.uint64(k1 & _MASK64),
        np.uint64(counter & _MASK64),
        np.uint64(index & _MASK64),
        np.uint64((n - 1) & _MASK64),
    )
    with np.errstate(over="ignore"):
        return int(_counter_draw(*args))


# --------------------------------------------------------------------------- #
# CounterRNG: the production (NumPy-Philox-backed) draw path
# --------------------------------------------------------------------------- #
class CounterRNG:
    """Stateless bounded-draw source addressed by integer coordinates.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.  ``None`` draws fresh entropy
        (irreproducible; allowed for parity with ``default_rng(None)`` but
        discouraged).
    stream_id:
        Which independent stream under ``root_seed`` this instance
        addresses.  Use :meth:`stream` to derive child streams (e.g. one
        per rack) without any coordination.

    Unlike a :class:`numpy.random.Generator`, instances carry **no draw
    state**: :meth:`integers` is a pure function of ``(root_seed,
    stream_id, index, counter)``, so any replay — request-by-request,
    batched, or streamed at an arbitrary chunk size — that presents the
    same coordinates reproduces the same draw, with nothing to fork, save,
    or restore at chunk boundaries.
    """

    __slots__ = ("root_seed", "stream_id", "key", "_bitgen", "_gen", "_state")

    def __init__(self, root_seed: Optional[int] = None, stream_id: int = 0):
        if root_seed is None:
            root_seed = int(np.random.SeedSequence().entropy) & _MASK64
        self.root_seed = int(root_seed)
        self.stream_id = int(stream_id)
        self.key = derive_key(self.root_seed, self.stream_id)
        key_arr = np.array(self.key, dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key_arr)
        self._gen = np.random.Generator(self._bitgen)
        # Pre-built state template: only the two coordinate words change
        # per draw.  buffer_pos=4 / has_uint32=0 mark both buffers empty,
        # so every draw regenerates from the coordinates alone.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [self.key[0], self.key[1]]},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def integers(self, n: int, index: int, counter: int = 0) -> int:
        """Uniform draw in ``[0, n)`` at coordinates ``(index, counter)``.

        ``index`` is the caller's draw-sequence position (for the pagers:
        the number of eviction draws made so far, which every replay order
        reproduces identically); ``counter`` distinguishes multiple draws
        at the same index.
        """
        state = self._state
        ctr = state["state"]["counter"]
        ctr[1] = counter & _MASK64
        ctr[2] = index & _MASK64
        self._bitgen.state = state
        return int(self._gen.integers(n))

    def stream(self, stream_id: int) -> "CounterRNG":
        """An independent child stream (pure function of the coordinates)."""
        return CounterRNG(self.root_seed, _combine_streams(self.stream_id, stream_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CounterRNG root_seed={self.root_seed} stream_id={self.stream_id:#x}>"
        )


# --------------------------------------------------------------------------- #
# The rng_mode axis
# --------------------------------------------------------------------------- #
#: Name -> factory registry of RNG modes; a factory maps a root seed to the
#: draw source handed to the randomized paging tier.
RNG_MODES: Registry = Registry("rng mode")

#: Mode used when nothing is specified (``MatchingConfig.rng_mode`` left at
#: ``None`` and ``REPRO_RNG_MODE`` unset).
DEFAULT_RNG_MODE = "counter"


@RNG_MODES.register("stateful")
def _make_stateful(root_seed: Optional[int]) -> np.random.Generator:
    """The legacy carried-state generator (kept as the reference mode)."""
    return np.random.default_rng(root_seed)


@RNG_MODES.register("counter")
def _make_counter(root_seed: Optional[int]) -> CounterRNG:
    """The stateless counter mode (this module's default)."""
    return CounterRNG(root_seed)


def resolve_rng_mode(mode: Optional[str] = None) -> str:
    """The effective RNG mode for a requested (possibly ``None``) mode.

    ``None`` falls back to the ``REPRO_RNG_MODE`` environment variable
    (the knob behind the *stateful-rng* CI tier) and then
    :data:`DEFAULT_RNG_MODE`.  Unknown names — from either source — raise
    :class:`~repro.errors.ConfigurationError` with suggestions.  The
    environment is re-read on every call.
    """
    if mode is None:
        mode = os.environ.get("REPRO_RNG_MODE", "").strip() or DEFAULT_RNG_MODE
    RNG_MODES.resolve(mode)
    return mode.lower()
