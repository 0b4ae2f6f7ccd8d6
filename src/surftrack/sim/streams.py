"""Counter-based deterministic random streams, one per processing element.

Draw i of stream k is ``finalize(key_k + i * GOLDEN)`` where finalize is
the splitmix64 output mix and GOLDEN is 2**64 / phi rounded to odd.
Stream keys are derived as

    key_k = finalize(finalize(seed) ^ finalize((k + 1) * GOLDEN))

so streams are decorrelated across both seeds and stream indices.
Because draws are pure functions of (key, position), the engine can
evaluate any subset of streams' next draws in one vectorized call, and a
stream sees identical values at identical positions however its draws
were batched or interleaved with other streams'.  That is the property
the whole reproducibility story hangs on; nothing here is stateful
beyond the per-stream position cursor.

The same property makes streams random-access: ``skip`` moves cursors
past a block without mixing it, and ``at`` evaluates explicit positions
without moving any cursor.  So a stage may mix only the draws it reads,
as long as its cursors still advance over the whole block; every value
it reads, and every draw after the block, is unchanged.

Uniform floats take the top 53 bits, so they lie in [0, 1).  Normal
magnitudes come from a Box-Muller cosine branch on two uniforms.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U64_GOLDEN = np.uint64(GOLDEN)
_TWO_NEG53 = 2.0 ** -53


def mix64(x: int) -> int:
    """Splitmix64 finalizer on a plain int (mod 2**64)."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


_MIX_BLOCK = 1 << 14  # elements per cache-resident pass of the finalizer
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer, element-wise, in place on a contiguous uint64 array.

    Other inputs are first converted to a fresh uint64 array.  The array
    is mixed block by block with one scratch buffer, so each block stays
    in cache through all seven passes.  Returns the mixed array.
    """
    x = np.ascontiguousarray(x, dtype=np.uint64)
    flat = x.reshape(-1)
    scratch = np.empty(min(flat.size, _MIX_BLOCK), dtype=np.uint64)
    for start in range(0, flat.size, _MIX_BLOCK):
        v = flat[start : start + _MIX_BLOCK]
        t = scratch[: v.size]
        np.right_shift(v, _S30, out=t)
        v ^= t
        v *= _M1
        np.right_shift(v, _S27, out=t)
        v ^= t
        v *= _M2
        np.right_shift(v, _S31, out=t)
        v ^= t
    return x


def stream_key(seed: int, stream_id: int) -> int:
    return mix64(mix64(seed) ^ mix64(((stream_id + 1) * GOLDEN) & MASK64))


def raw_draw(key: int, position: int) -> int:
    """The position-th 64-bit value of the stream with this key."""
    return mix64((key + position * GOLDEN) & MASK64)


def to_unit(values: np.ndarray) -> np.ndarray:
    """Map uint64 draws to float64 uniforms in [0, 1)."""
    return (values >> np.uint64(11)).astype(np.float64) * _TWO_NEG53


def to_index(values: np.ndarray, bound: int) -> np.ndarray:
    """Map uint64 draws to int64 indices uniform over [0, bound).

    Equal to ``(to_unit(values) * bound)`` truncated: scaling by a power
    of two is exact, so folding 2**-53 into the bound rounds the same.
    A bound 2**s with 1 <= s <= 53 keeps the top s bits, which is that
    same product, by one shift; above 2**53 the product's low bits are
    zero where a shift would keep the draw's.
    """
    bound = int(bound)
    if 2 <= bound <= 2**53 and bound & (bound - 1) == 0:
        return (values >> np.uint64(65 - bound.bit_length())).view(np.int64)
    u = (values >> np.uint64(11)).astype(np.float64)
    u *= bound * _TWO_NEG53
    return u.astype(np.int64)


def normal_magnitudes(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """|N(0, 1)| from paired uniforms via Box-Muller's cosine branch."""
    r = np.sqrt(-2.0 * np.log1p(-u1))
    return np.abs(r * np.cos(2.0 * np.pi * u2))


class StreamBank:
    """Position cursors for a whole grid's worth of streams.

    Stream ids 0..n_streams-1; callers reserve whatever convention they
    like (the engine uses one stream per PE, then one for transport and
    one for the asynchronous schedule).
    """

    def __init__(self, seed: int, n_streams: int) -> None:
        # stream_key(seed, k) for every k at once
        keys = _mix64_array(np.arange(1, n_streams + 1, dtype=np.uint64) * _U64_GOLDEN)
        keys ^= np.uint64(mix64(seed))
        self.keys = _mix64_array(keys)
        self.positions = np.zeros(n_streams, dtype=np.uint64)

    def draw(self, streams: np.ndarray | slice, count: int) -> np.ndarray:
        """Next ``count`` values from each selected stream.

        Returns shape (n_selected, count); advances only the selected
        cursors.  Values match scalar :func:`raw_draw` at the same
        positions exactly.
        """
        return self.at(streams, self.skip(streams, count), np.arange(count, dtype=np.uint64))

    def skip(self, streams: np.ndarray | slice, count: int | np.ndarray) -> np.ndarray:
        """Advance the selected cursors past ``count`` draws without
        mixing any of them; return the cursors as they were before.

        ``count`` is one count for every selected stream, or an array
        with one count per selected stream; a count of 0 leaves that
        cursor where it is.
        """
        pos = np.array(self.positions[streams])  # a copy, even of a slice
        self.positions[streams] = pos + np.asarray(count, dtype=np.uint64)
        return pos

    def at(
        self, streams: np.ndarray | slice, base: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Values of the selected streams at explicit positions; no cursor moves.

        Row i is evaluated on the i-th selected stream at positions
        ``base[i] + offsets`` when ``offsets`` has shape (c,), or
        ``base[i] + offsets[i]`` when it has shape (n_selected, c).
        Positions wrap mod 2**64 like the cursors.  Values match scalar
        :func:`raw_draw` at the same positions exactly.
        """
        origin = self.keys[streams] + np.asarray(base, dtype=np.uint64) * _U64_GOLDEN
        steps = np.asarray(offsets, dtype=np.uint64) * _U64_GOLDEN
        return _mix64_array(origin[:, None] + steps)

    def draw_one(self, stream: int, count: int) -> np.ndarray:
        """Next ``count`` values from a single stream, shape (count,)."""
        return self.draw(np.array([stream]), count)[0]

