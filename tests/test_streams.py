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


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1, -5, 2**70 + 3])
@pytest.mark.parametrize("n_streams", [1, 2, 16385, 16386])
def test_bank_keys_match_scalar_stream_keys(seed, n_streams):
    keys = streams.StreamBank(seed, n_streams).keys
    assert keys.dtype == np.uint64
    assert keys.tolist() == [streams.stream_key(seed, k) for k in range(n_streams)]


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


@pytest.mark.parametrize("s", range(1, 54))
def test_to_index_of_a_power_of_two_is_the_float_formula_exactly(s):
    """A bound 2**s keeps the draw's top s bits, as the scaled uniform
    does: checked at both ends and on either side of every step."""
    steps = np.arange(1, min(1 << s, 4096), dtype=np.uint64) << np.uint64(64 - s)
    if s > 12:  # the last steps too, not only the first 4095
        steps = np.concatenate([steps, -steps])
    one = np.uint64(1)
    ends = np.array([0, (1 << 64) - 1], dtype=np.uint64)
    vals = np.concatenate([ends, steps - one, steps, steps + one])
    expected = (streams.to_unit(vals) * 2**s).astype(np.int64)
    assert np.array_equal(streams.to_index(vals, 2**s), expected)


@pytest.mark.parametrize("bound", [7, 48, 2**54, 3 * 2**20])
def test_to_index_of_other_bounds_is_the_float_formula(bound):
    """Past 2**53, and at bounds that are not powers of two, the draw's
    low bits do not survive, as they would under a shift."""
    vals = np.concatenate(
        [scalar_draws(3, 1, 0, 2000), np.array([0, (1 << 64) - 1], dtype=np.uint64)]
    )
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


def test_draws_from_a_slice_of_streams_match_scalar_draws():
    bank = streams.StreamBank(seed=8, n_streams=4)
    bank.draw(np.array([2]), 3)
    out = bank.draw(slice(1, 3), 4)
    assert (out[0] == scalar_draws(8, 1, 0, 4)).all()
    assert (out[1] == scalar_draws(8, 2, 3, 4)).all()
    assert bank.positions.tolist() == [0, 4, 7, 0]


def test_draw_one_matches_batch():
    bank = streams.StreamBank(seed=8, n_streams=2)
    a = bank.draw_one(1, 4)
    assert (a == scalar_draws(8, 1, 0, 4)).all()


def test_seed_is_taken_mod_2_64():
    a = scalar_draws(-1, 0, 0, 4)
    b = scalar_draws((1 << 64) - 1, 0, 0, 4)
    assert (a == b).all()
    assert (streams.StreamBank(-1, 1).draw_one(0, 4) == b).all()


# -- skipping and positional reads -------------------------------------------

MASK64 = (1 << 64) - 1


def test_positional_reads_match_scalar_draws():
    """at() equals raw_draw at base + offset, for shared and per-row offsets,
    at random positions, positions past 2**32, and positions that wrap."""
    rng = np.random.default_rng(5)
    bank = streams.StreamBank(seed=13, n_streams=6)
    ids = np.array([4, 0, 5])
    base = np.array([rng.integers(0, 1 << 32), (1 << 40) + 7, MASK64 - 2], dtype=np.uint64)
    shared = np.array([0, 1, 9, 3, 1 << 33], dtype=np.uint64)
    per_row = rng.integers(0, 1 << 62, size=(3, 4), dtype=np.uint64)
    per_row[2, 0] = 2  # base + 2 wraps to 0
    before = bank.positions.copy()
    for offsets in (shared, per_row):
        out = bank.at(ids, base, offsets)
        full = np.broadcast_to(offsets, out.shape)
        for i, k in enumerate(ids):
            key = int(bank.keys[k])
            expected = [
                streams.raw_draw(key, (int(base[i]) + int(o)) & MASK64) for o in full[i]
            ]
            assert [int(v) for v in out[i]] == expected
    assert np.array_equal(bank.positions, before)


def test_skip_moves_only_the_selected_cursors_and_returns_the_old_ones():
    bank = streams.StreamBank(seed=2, n_streams=4)
    bank.draw(np.array([1]), 3)
    start = bank.skip(np.array([1, 2]), 10)
    assert start.tolist() == [3, 0]
    assert bank.positions.tolist() == [0, 13, 10, 0]
    assert bank.skip(slice(2, 4), 5).tolist() == [10, 0]
    assert bank.positions.tolist() == [0, 13, 15, 5]


def test_skip_then_draw_is_a_slice_of_one_long_draw():
    ids = np.array([0, 2, 3])
    skipping = streams.StreamBank(seed=21, n_streams=4)
    drawing = streams.StreamBank(seed=21, n_streams=4)
    for bank in (skipping, drawing):
        bank.draw(ids[:2], 3)
    start = skipping.skip(ids, 5)
    tail = skipping.draw(ids, 7)
    whole = drawing.draw(ids, 5 + 7)
    assert np.array_equal(tail, whole[:, 5:])
    assert np.array_equal(skipping.positions, drawing.positions)
    # the skipped block is still there to read at the returned cursors
    assert np.array_equal(skipping.at(ids, start, np.arange(5)), whole[:, :5])


def test_ragged_skip_then_at_equals_draws_taken_one_stream_at_a_time():
    ids = np.array([3, 0, 2, 1])
    counts = np.array([5, 0, 2, 7], dtype=np.uint64)
    ragged = streams.StreamBank(seed=8, n_streams=5)
    single = streams.StreamBank(seed=8, n_streams=5)
    for bank in (ragged, single):
        bank.draw(np.array([0, 3]), 3)
    before = ragged.positions.copy()
    start = ragged.skip(ids, counts)
    assert np.array_equal(start, before[ids])
    for i, k in enumerate(ids):
        got = ragged.at(ids[i : i + 1], start[i : i + 1], np.arange(int(counts[i])))[0]
        assert np.array_equal(got, single.draw_one(int(k), int(counts[i])))
    assert np.array_equal(ragged.positions, single.positions)
    assert ragged.positions[0] == before[0] == 3  # a zero count moves nothing
    assert ragged.positions[4] == 0  # an unselected stream neither


def test_cursors_wrap_mod_2_64():
    bank = streams.StreamBank(seed=3, n_streams=2)
    bank.positions[:] = MASK64 - 2  # three draws short of wrapping
    key = int(bank.keys[1])
    out = bank.draw_one(1, 6)
    assert [int(v) for v in out] == [
        streams.raw_draw(key, (MASK64 - 2 + i) & MASK64) for i in range(6)
    ]
    assert int(bank.positions[1]) == 3
    assert int(bank.skip(np.array([0]), 4)[0]) == MASK64 - 2
    assert int(bank.positions[0]) == 1
