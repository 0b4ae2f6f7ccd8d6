"""Placement and inversion math for the three retention policies."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surftrack.surface import sites

RANKS = st.integers(min_value=0, max_value=(1 << 24) - 1)
SLOT_COUNTS = st.sampled_from([8, 16, 32, 64, 128])


def test_hanoi_value_small():
    # number of trailing ones in binary T, equivalently ctz(T + 1)
    assert [sites.hanoi_value(t) for t in range(12)] == [
        0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2,
    ]


def test_validate_slot_count_rejections():
    with pytest.raises(ValueError):
        sites.validate_slot_count("steady", 12)
    with pytest.raises(ValueError):
        sites.validate_slot_count("steady", 2)
    with pytest.raises(ValueError):
        sites.validate_slot_count("hybrid", 4)
    with pytest.raises(ValueError):
        sites.validate_slot_count("nope", 16)
    sites.validate_slot_count("tilted", 8)


def test_steady_fill_phase_is_identity():
    """While the counter is below S, steady keeps everything: slot = rank.

    Tilted has no such phase; its bands overwrite early ranks almost
    immediately (see the frozen S=8 map below).
    """
    S = 16
    assert [sites.steady_site(t, S) for t in range(S)] == list(range(S))
    for t in range(S):
        assert sites.tilted_site(t, S) is not None
        assert sites.hybrid_site(t, S) is not None


def test_steady_discards_only_even_odd_parts():
    S = 8
    kept = [t for t in range(64) if sites.steady_site(t, S) is not None]
    for t in kept:
        odd = t >> (t & -t).bit_length() - 1 if t else 0
        # t = 0 or odd_part(t) < S
        assert t == 0 or (t // (t & -t)) < S


def test_steady_known_map_s4():
    # full slot map after 7 deposits, worked out by hand
    got = {}
    for t in range(7):
        s = sites.steady_site(t, 4)
        if s is not None:
            got[s] = t
    assert got == {0: 0, 1: 4, 2: 2, 3: 6}


def test_steady_known_retention_s4_n13():
    kept = sorted(
        t for t in range(13) if sites.steady_site(t, 4) is not None
        and all(
            sites.steady_site(u, 4) != sites.steady_site(t, 4)
            for u in range(t + 1, 13)
            if sites.steady_site(u, 4) is not None
        )
    )
    assert kept == [0, 4, 8, 12]


def test_tilted_known_map_s8():
    slots: list[int | None] = [None] * 8
    for t in range(8):
        slots[sites.tilted_site(t, 8)] = t
    assert slots == [0, 7, 4, 6, 1, 5, 3, None]


def test_tilted_slot_zero_is_permanent():
    for t in range(1, 4096):
        assert sites.tilted_site(t, 16) != 0


def test_tilted_never_discards():
    for t in range(4096):
        assert sites.tilted_site(t, 32) is not None


def test_hybrid_routes_by_parity():
    S = 16
    # even ranks land in the low half, odd in the high half
    for t in range(256):
        slot = sites.hybrid_site(t, S)
        if slot is None:
            assert t % 2 == 0  # only the steady half discards
        elif t % 2 == 0:
            assert slot < S // 2
        else:
            assert slot >= S // 2
    assert sites.hybrid_site(10, 16) == 5


@given(RANKS, SLOT_COUNTS)
def test_latest_deposit_is_recoverable(rank, slot_count):
    """After deposit T the inversion at counter T+1 names T itself."""
    for policy in sites.POLICIES:
        slot = sites.site(policy, rank, slot_count)
        if slot is None:
            continue
        assert sites.resident_rank(policy, slot, rank + 1, slot_count) == rank


@given(RANKS, SLOT_COUNTS)
def test_resident_ranks_are_distinct_and_bounded(rank, slot_count):
    n = rank + 1
    for policy in sites.POLICIES:
        seen = set()
        for slot in range(slot_count):
            r = sites.resident_rank(policy, slot, n, slot_count)
            if r is None:
                continue
            assert 0 <= r < n
            assert r not in seen
            seen.add(r)
        if n >= slot_count:
            assert sites.resident_rank(policy, 0, n, slot_count) == 0


def test_resident_rank_validates_slot():
    with pytest.raises(ValueError):
        sites.resident_rank("steady", 8, 100, 8)
    with pytest.raises(ValueError):
        sites.resident_rank("steady", -1, 100, 8)


def test_steady_inversion_chain_values():
    # slot 1 with S=4: successive epochs hold ranks 1, 4, 16, 64, ...
    assert sites.steady_resident(1, 11, 4) == 4
    assert sites.steady_resident(1, 20, 4) == 16


def test_tilted_overflow_slot_closed_form():
    S = 8
    cap = (S - 2) // 2  # bits of counter the bands can absorb
    for n in range(1 << cap, 512):
        expected = ((n >> cap) << cap) - 1
        assert sites.tilted_resident(1, n, S) == expected
