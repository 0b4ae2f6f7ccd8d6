"""SurfaceAnnotation deposit/recovery behavior."""

import numpy as np
import pytest

from surftrack.surface.annotation import (
    RESIDENCY_CACHE_SIZE,
    SurfaceAnnotation,
    residency,
    surface_records,
)


def test_deposit_sequence_matches_inversion():
    ann = SurfaceAnnotation("steady", 8, differentia_bits=8)
    for t in range(20):
        ann.deposit(t % 251)
    records = ann.to_records()
    assert records.counter == 20
    for rank, value in records.mapping().items():
        assert value == rank % 251
    assert records.ranks() == tuple(sorted(records.ranks()))


def test_records_len_and_mapping():
    ann = SurfaceAnnotation("tilted", 8)
    for _ in range(5):
        ann.deposit(1)
    rec = ann.to_records()
    assert len(rec) == 5
    assert set(rec.mapping().values()) == {1}


def test_empty_annotation_has_no_records():
    ann = SurfaceAnnotation("steady", 16)
    assert ann.to_records().held == ann.to_records().values == ()
    assert ann.resident_rank(0) is None


def test_value_range_enforced():
    ann = SurfaceAnnotation("steady", 8, differentia_bits=1)
    with pytest.raises(ValueError):
        ann.deposit(2)
    ann8 = SurfaceAnnotation("steady", 8, differentia_bits=8)
    ann8.deposit(255)
    with pytest.raises(ValueError):
        ann8.deposit(256)
    with pytest.raises(ValueError):
        ann8.deposit(-1)


def test_construction_refuses_what_deposit_would():
    with pytest.raises(ValueError, match=r"slot 3 value 7 out of range for 1 bit\(s\)"):
        SurfaceAnnotation("steady", 8, 1, counter=5, slots=[0, 1, 0, 7, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"slot 0 value 256 out of range for 8 bit\(s\)"):
        SurfaceAnnotation("steady", 8, 8, counter=5, slots=[256] + [0] * 7)
    with pytest.raises(ValueError, match=r"slot 7 value -1 out of range for 3 bit\(s\)"):
        SurfaceAnnotation("steady", 8, 3, counter=5, slots=[0] * 7 + [-1])
    with pytest.raises(ValueError, match="counter must be non-negative, got -1"):
        SurfaceAnnotation("steady", 8, counter=-1)
    ann = SurfaceAnnotation("steady", 8, 3, counter=5, slots=[7] * 8)  # the widest values fit
    assert set(ann.to_records().values) == {7}


def test_counter_capacity_overflow():
    # capacity 8 means counters 0..7 are storable; the deposit that
    # would move the counter past 7 must refuse up front
    ann = SurfaceAnnotation("steady", 8, counter_capacity=8)
    for _ in range(7):
        ann.deposit(0)
    with pytest.raises(OverflowError):
        ann.deposit(0)
    assert ann.counter == 7


def test_construction_refuses_a_counter_past_its_capacity():
    with pytest.raises(ValueError, match="counter 10 is at or past its capacity 8"):
        SurfaceAnnotation("steady", 8, counter=10, counter_capacity=8)
    with pytest.raises(ValueError, match="counter 8 is at or past its capacity 8"):
        SurfaceAnnotation("steady", 8, counter=8, counter_capacity=8)
    assert SurfaceAnnotation("steady", 8, counter=7, counter_capacity=8).to_records().counter == 7


def test_unbounded_when_capacity_omitted():
    ann = SurfaceAnnotation("steady", 8)
    for _ in range(100_000):
        ann.deposit(0)
    assert ann.counter == 100_000


def test_slot_validation():
    with pytest.raises(ValueError):
        SurfaceAnnotation("steady", 12)
    with pytest.raises(ValueError):
        SurfaceAnnotation("steady", 8, differentia_bits=9)
    with pytest.raises(ValueError):
        SurfaceAnnotation("steady", 8, slots=[0, 1])


def test_resident_rank_tracks_overwrites():
    ann = SurfaceAnnotation("steady", 4)
    seen = {}
    for t in range(25):
        ann.deposit(t & 1)
        seen[t] = {s: ann.resident_rank(s) for s in range(4)}
    # rank 0 never leaves slot 0
    assert all(snap[0] == 0 for snap in seen.values())
    # by 13 deposits the retained set is the evenly spaced one
    assert sorted(r for r in seen[12].values() if r is not None) == [0, 4, 8, 12]


def test_record_sets_of_one_counter_share_their_ranks_across_calls():
    a = SurfaceAnnotation("hybrid", 16, 8, counter=1234, slots=[3] * 16).to_records()
    b = SurfaceAnnotation("hybrid", 16, 8, counter=1234, slots=[5] * 16).to_records()
    assert a.held is b.held and a.values != b.values
    surfaces = np.zeros((2, 16), dtype=np.uint8)
    first = surface_records("hybrid", 16, np.array([1234, 77]), surfaces)
    again = surface_records("hybrid", 16, np.array([77, 1234]), surfaces)
    assert first[0].held is again[1].held is a.held
    assert first[1].held is again[0].held


def test_the_residency_cache_stays_within_its_size():
    for counter in range(RESIDENCY_CACHE_SIZE + 100):
        residency("tilted", 16, counter)
        assert residency.cache_info().currsize <= RESIDENCY_CACHE_SIZE
    assert residency.cache_info().currsize == RESIDENCY_CACHE_SIZE
