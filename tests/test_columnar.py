"""The columnar end-state path against independent references.

The batch codec is checked against a per-slot reference written here
from the layout description alone, and residency-table records against
brute replay from :mod:`surftrack.oracle`, so a bug shared by the codec
and ``SurfaceAnnotation.to_records`` cannot hide behind agreement of
the two.
"""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftrack import oracle
from surftrack.surface import sites
from surftrack.surface.annotation import (
    RecordSet,
    SurfaceAnnotation,
    residency,
    surface_records,
)
from surftrack.surface.genome import (
    GenomeFields,
    GenomeLayout,
    pack_genome,
    pack_genomes,
    unpack_genome,
    unpack_genomes,
)

# -- per-slot reference codec --------------------------------------------------


def ref_pack(layout: GenomeLayout, f: GenomeFields) -> bytes:
    S, w = layout.slot_count, layout.differentia_bits
    if not 0 <= f.counter < layout.counter_capacity:
        raise ValueError(f"counter {f.counter} does not fit in {layout.counter_bytes} bytes")
    if len(f.surface) != S:
        raise ValueError(f"expected {S} surface values, got {len(f.surface)}")
    surface = bytearray(layout.surface_bytes)
    for k, v in enumerate(f.surface):
        if not 0 <= v < (1 << w):
            raise ValueError(f"slot {k} value {v} out of range for {w} bit(s)")
        for b in range(w):
            if v >> b & 1:
                bit = k * w + b
                surface[bit // 8] |= 1 << (bit % 8)
    if layout.kind == "tagged":
        if f.founder_tag is None:
            raise ValueError("tagged layout requires founder_tag")
        if not 0 <= f.founder_tag < (1 << 16):
            raise ValueError(f"founder_tag {f.founder_tag} does not fit in 16 bits")
        head = struct.pack("<HH", f.founder_tag, f.counter)
    else:
        if f.fitness is None:
            raise ValueError("fitness layout requires fitness")
        head = struct.pack("<fI", f.fitness, f.counter)
    return head + bytes(surface)


def ref_unpack(layout: GenomeLayout, blob: bytes) -> GenomeFields:
    S, w = layout.slot_count, layout.differentia_bits
    start = layout.header_bytes + layout.counter_bytes
    surface = []
    for k in range(S):
        v = 0
        for b in range(w):
            bit = k * w + b
            v |= (blob[start + bit // 8] >> (bit % 8) & 1) << b
        surface.append(v)
    if layout.kind == "tagged":
        tag, counter = struct.unpack_from("<HH", blob)
        return GenomeFields(counter, tuple(surface), founder_tag=tag)
    fitness, counter = struct.unpack_from("<fI", blob)
    return GenomeFields(counter, tuple(surface), fitness=fitness)


def outcome(fn):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", fn()
    except (ValueError, OverflowError) as err:
        return type(err), str(err)


# Ways to spoil one genome so that one particular check rejects it.
FAULTS = ("counter-low", "counter-high", "length", "value-low", "value-high", "header", "tag")


@st.composite
def layouts(draw):
    return GenomeLayout(
        draw(st.sampled_from(("tagged", "fitness"))),
        draw(st.integers(4, 256)),
        draw(st.integers(1, 8)),
    )


@st.composite
def genome(draw, layout: GenomeLayout):
    cap, w, S = layout.counter_capacity, layout.differentia_bits, layout.slot_count
    counter = draw(st.one_of(st.integers(0, cap - 1), st.integers(cap - 3, cap - 1)))
    surface = draw(st.lists(st.integers(0, (1 << w) - 1), min_size=S, max_size=S))
    if layout.kind == "tagged":
        return GenomeFields(counter, tuple(surface), founder_tag=draw(st.integers(0, 0xFFFF)))
    fitness = draw(st.floats(allow_nan=False, min_value=-3.4e38, max_value=3.4e38))
    return GenomeFields(counter, tuple(surface), fitness=fitness)


def spoil(layout: GenomeLayout, f: GenomeFields, fault: str, k: int) -> GenomeFields:
    cap, w, S = layout.counter_capacity, layout.differentia_bits, layout.slot_count
    surface = list(f.surface)
    if fault == "counter-low":
        return GenomeFields(-1, f.surface, f.founder_tag, f.fitness)
    if fault == "counter-high":
        return GenomeFields(cap + k % 3, f.surface, f.founder_tag, f.fitness)
    if fault == "length":
        return GenomeFields(f.counter, tuple(surface[: S - 1 - k % 2]), f.founder_tag, f.fitness)
    if fault in ("value-low", "value-high"):
        surface[k % S] = -1 if fault == "value-low" else (1 << w) + k % 3
        return GenomeFields(f.counter, tuple(surface), f.founder_tag, f.fitness)
    if fault == "header":  # the header field is missing
        return GenomeFields(f.counter, f.surface)
    if layout.kind == "tagged":  # "tag": out of range, or a fitness too big for float32
        return GenomeFields(f.counter, f.surface, founder_tag=(1 << 16) + k % 3)
    return GenomeFields(f.counter, f.surface, fitness=3.5e38 * (1 + k))


@st.composite
def batches(draw):
    layout = draw(layouts())
    fields = draw(st.lists(genome(layout), max_size=5))
    for _ in range(draw(st.integers(0, 2)) if fields else 0):
        i = draw(st.integers(0, len(fields) - 1))
        fault = draw(st.sampled_from(FAULTS))
        fields[i] = spoil(layout, fields[i], fault, draw(st.integers(0, 300)))
    return layout, fields


@settings(max_examples=150, deadline=None)
@given(batches())
def test_batch_codec_matches_the_per_slot_reference(case):
    layout, fields = case
    want = outcome(lambda: b"".join(ref_pack(layout, f) for f in fields))
    got = outcome(lambda: pack_genomes(layout, fields).tobytes())
    assert got == want
    for f in fields:  # the scalar API is the one-genome batch
        assert outcome(lambda: pack_genome(layout, f)) == outcome(lambda: ref_pack(layout, f))
    if want[0] != "ok":
        return
    blobs = [ref_pack(layout, f) for f in fields]
    assert unpack_genomes(layout, want[1]).to_fields() == [ref_unpack(layout, b) for b in blobs]
    for b in blobs:
        assert unpack_genome(layout, b) == ref_unpack(layout, b)


@pytest.mark.parametrize("kind", ["tagged", "fitness"])
def test_each_check_bites_exactly_at_its_boundary(kind):
    layout = GenomeLayout(kind, 12, 3)
    cap = layout.counter_capacity
    head = {"founder_tag": 0xFFFF} if kind == "tagged" else {"fitness": 3.4028234e38}
    over = {"founder_tag": 0x10000} if kind == "tagged" else {"fitness": 3.5e38}
    good = GenomeFields(cap - 1, (7,) * 12, **head)
    edges = [
        good,
        GenomeFields(cap, good.surface, **head),
        GenomeFields(0, (8,) + good.surface[1:], **head),
        GenomeFields(0, good.surface, **over),
    ]
    for f in edges:
        batch = [good, f, good]
        assert outcome(lambda: pack_genomes(layout, batch).tobytes()) == outcome(
            lambda: b"".join(ref_pack(layout, g) for g in batch)
        )


@settings(max_examples=100, deadline=None)
@given(layouts(), st.data())
def test_unpack_rejects_wrong_lengths_like_the_reference(layout, data):
    total = layout.total_bytes
    size = data.draw(st.integers(0, total + 3).filter(lambda n: n != total))
    with pytest.raises(ValueError) as err:
        unpack_genome(layout, bytes(size))
    assert str(err.value) == (
        f"genome is {size} bytes; {layout.kind} layout with "
        f"{layout.slot_count} slots needs {total}"
    )


# -- residency-table records against replay -------------------------------------


@pytest.mark.parametrize("policy", sites.POLICIES)
@pytest.mark.parametrize("slot_count", [8, 16, 32, 64, 128])
def test_residency_records_match_replay(policy, slot_count, monkeypatch):
    rng = random.Random(f"{policy}-{slot_count}")
    distinct = sorted(set(range(40)) | {rng.randrange(40, 1 << 12) for _ in range(60)} | {1 << 12})
    counters = [c for c in distinct for _ in range(rng.randint(1, 3))]
    rng.shuffle(counters)
    surfaces = np.array(
        [[rng.randrange(256) for _ in range(slot_count)] for _ in counters], dtype=np.uint8
    )

    calls = 0
    real = sites.resident_rank

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(sites, "resident_rank", counted)
    residency.cache_clear()  # count the inversions, not reads of earlier tables
    got = surface_records(policy, slot_count, np.array(counters), surfaces)
    assert calls <= slot_count * len(distinct)
    monkeypatch.setattr(sites, "resident_rank", real)

    replayed = {c: oracle.replay_retained(policy, slot_count, c) for c in distinct}
    for counter, row, records in zip(counters, surfaces.tolist(), got):
        held = replayed[counter]
        pairs = sorted((rank, row[s]) for s, rank in held.items())
        want = RecordSet(tuple(r for r, _ in pairs), tuple(v for _, v in pairs), counter)
        assert records == want
        ann = SurfaceAnnotation(policy, slot_count, 8, counter=counter, slots=row)
        assert ann.to_records() == want


@pytest.mark.parametrize("policy", sites.POLICIES)
def test_record_sets_of_one_counter_share_their_ranks(policy):
    rng = random.Random(policy)
    counters = [rng.choice([0, 5, 37, 1000]) for _ in range(40)]
    surfaces = np.array([[rng.randrange(256) for _ in range(16)] for _ in counters], np.uint8)
    got = surface_records(policy, 16, np.array(counters), surfaces)
    first = {}
    for counter, row, records in zip(counters, surfaces.tolist(), got):
        assert records.held is first.setdefault(counter, records.held)
        ann = SurfaceAnnotation(policy, 16, 8, counter=counter, slots=row)
        assert records == ann.to_records()
    assert len(first) == 4
