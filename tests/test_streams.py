"""Counter-based stream discipline.

The suite reimplements the output mix from its published constants at
the top of this file; if someone edits the production constants, these
tests fail rather than drifting along.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surftrack.sim import streams


def _reference_mix(x: int) -> int:
    mask = (1 << 64) - 1
    x &= mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def scalar_draws(seed: int, stream_id: int, start: int, count: int) -> np.ndarray:
    """Draws start..start+count-1 of one stream, one raw_draw at a time."""
    key = streams.stream_key(seed, stream_id)
    draws = [streams.raw_draw(key, i) for i in range(start, start + count)]
    return np.array(draws, dtype=np.uint64)


def test_finalizer_known_values():
    # fixed points of the empty input and two spot checks computed from
    # the constants by hand (independently of the module under test)
    assert streams.mix64(0) == 0
    assert streams.mix64(1) == _reference_mix(1)
    assert streams.mix64(0xDEADBEEF) == _reference_mix(0xDEADBEEF)


@given(st.integers(0, (1 << 64) - 1))
def test_finalizer_matches_reference(x):
    assert streams.mix64(x) == _reference_mix(x)


@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=50))
def test_vectorized_finalizer_matches_scalar(xs):
    arr = np.array(xs, dtype=np.uint64)
    out = streams._mix64_array(arr)
    assert [int(v) for v in out] == [streams.mix64(x) for x in xs]


def test_finalizer_matches_scalar_across_blocks():
    xs = [(i * 0x9E3779B97F4A7C15 + 12345) % (1 << 64) for i in range(streams._MIX_BLOCK + 7)]
    out = streams._mix64_array(np.array(xs, dtype=np.uint64))
    for i in (0, streams._MIX_BLOCK - 1, streams._MIX_BLOCK, len(xs) - 1):
        assert int(out[i]) == streams.mix64(xs[i])


def test_draws_are_pure_functions_of_position():
    key = streams.stream_key(42, 7)
    a = [streams.raw_draw(key, i) for i in range(10)]
    b = [streams.raw_draw(key, i) for i in range(10)]
    assert a == b
    assert len(set(a)) == 10


def test_streams_differ_across_ids_and_seeds():
    assert streams.stream_key(0, 0) != streams.stream_key(0, 1)
    assert streams.stream_key(0, 0) != streams.stream_key(1, 0)
    a = [streams.raw_draw(streams.stream_key(5, 0), i) for i in range(100)]
    b = [streams.raw_draw(streams.stream_key(5, 1), i) for i in range(100)]
    assert not set(a) & set(b)


def test_to_unit_range_and_resolution():
    vals = np.array([0, 1, (1 << 64) - 1], dtype=np.uint64)
    u = streams.to_unit(vals)
    assert u[0] == 0.0
    assert 0.0 <= u.min() and u.max() < 1.0
    # top 53 bits: the largest representable draw maps just below 1
    assert u[2] == (((1 << 64) - 1) >> 11) * 2.0**-53


def test_to_index_covers_bound():
    vals = scalar_draws(0, 0, 0, 2000)
    idx = streams.to_index(vals, 7)
    assert set(int(i) for i in idx) == set(range(7))


@given(
    st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=50),
    st.integers(1, 1 << 40),
)
def test_to_index_truncates_the_scaled_uniform(xs, bound):
    vals = np.array(xs, dtype=np.uint64)
    expected = (streams.to_unit(vals) * bound).astype(np.int64)
    assert np.array_equal(streams.to_index(vals, bound), expected)


def test_normal_magnitudes_nonnegative_and_spread():
    u1 = streams.to_unit(scalar_draws(3, 1, 0, 20000))
    u2 = streams.to_unit(scalar_draws(3, 1, 20000, 20000))
    mags = streams.normal_magnitudes(u1, u2)
    assert (mags >= 0.0).all()
    # E|N(0,1)| = sqrt(2/pi)
    assert abs(mags.mean() - math.sqrt(2 / math.pi)) < 0.02


def test_unit_draws_look_uniform():
    u = streams.to_unit(scalar_draws(9, 4, 0, 50000))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.quantile(u, 0.25) - 0.25) < 0.02


def test_bank_and_scalar_stream_agree():
    bank = streams.StreamBank(seed=17, n_streams=5)
    all_ids = np.arange(5)
    batched = [bank.draw(all_ids, 3)[3] for _ in range(4)]
    solo = [scalar_draws(17, 3, 3 * i, 3) for i in range(4)]
    for b, s in zip(batched, solo):
        assert (b == s).all()


def test_bank_advances_only_selected_cursors():
    bank = streams.StreamBank(seed=0, n_streams=4)
    bank.draw(np.array([1, 2]), 5)
    assert (bank.draw(np.array([0]), 2)[0] == scalar_draws(0, 0, 0, 2)).all()


def test_one_long_draw_equals_consecutive_short_ones():
    """A stage may fuse consecutive draws into one call and split it."""
    ids = np.array([0, 2, 3])
    fused = streams.StreamBank(seed=21, n_streams=4)
    split = streams.StreamBank(seed=21, n_streams=4)
    fused.draw(ids[:2], 3)
    split.draw(ids[:2], 3)
    whole = fused.draw(ids, 5 + 7)
    parts = np.concatenate([split.draw(ids, 5), split.draw(ids, 7)], axis=1)
    assert np.array_equal(whole, parts)
    assert np.array_equal(fused.positions, split.positions)


def test_draw_one_matches_batch():
    bank = streams.StreamBank(seed=8, n_streams=2)
    a = bank.draw_one(1, 4)
    assert (a == scalar_draws(8, 1, 0, 4)).all()


def test_seed_is_taken_mod_2_64():
    a = scalar_draws(-1, 0, 0, 4)
    b = scalar_draws((1 << 64) - 1, 0, 0, 4)
    assert (a == b).all()
    assert (streams.StreamBank(-1, 1).draw_one(0, 4) == b).all()
