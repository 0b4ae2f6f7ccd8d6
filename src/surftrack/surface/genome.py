"""Byte layouts for packing annotations into fixed-width genomes.

Two standard layouts:

* tagged (12 bytes): founder tag u16 | deposit counter u16 | 64 x 1-bit
  surface.  Used by neutral runs where lineage identity is the payload.
* fitness (16 bytes): fitness float32 | deposit counter u32 | 64 x 1-bit
  surface.  Used by selection runs.

All integers little endian.  Within the surface region, slot k occupies
bits [k*w, (k+1)*w) of the region interpreted as one little-endian
integer, i.e. slot 0 sits in the lowest bits of the first byte.  Other
slot counts and differentia widths pack the same way, so the codec also
serves non-standard surfaces.

The codec is columnar: :func:`pack_genomes` and :func:`unpack_genomes`
handle many genomes in one numpy pass, and the scalar
:func:`pack_genome` and :func:`unpack_genome` are one-genome calls of
the same code.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GenomeLayout:
    """Field geometry for one genome wire format."""

    kind: str  # "tagged" or "fitness"
    slot_count: int = 64
    differentia_bits: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("tagged", "fitness"):
            raise ValueError(f"unknown layout kind {self.kind!r}")
        if not 1 <= self.differentia_bits <= 8:
            raise ValueError(f"differentia_bits must be 1..8, got {self.differentia_bits}")
        if self.slot_count < 1:
            raise ValueError("slot_count must be positive")

    @property
    def header_bytes(self) -> int:
        return 2 if self.kind == "tagged" else 4

    @property
    def counter_bytes(self) -> int:
        return 2 if self.kind == "tagged" else 4

    @property
    def counter_capacity(self) -> int:
        return 1 << (8 * self.counter_bytes)

    @property
    def surface_bytes(self) -> int:
        return (self.slot_count * self.differentia_bits + 7) // 8

    @property
    def total_bytes(self) -> int:
        return self.header_bytes + self.counter_bytes + self.surface_bytes

    @property
    def dtype(self) -> np.dtype:
        """One genome as a packed numpy record: head, counter, surface bytes."""
        head = "<u2" if self.kind == "tagged" else "<f4"
        counter = "<u2" if self.kind == "tagged" else "<u4"
        return np.dtype(
            [("head", head), ("counter", counter), ("surface", "u1", (self.surface_bytes,))]
        )

    def check_length(self, blob: bytes) -> bytes:
        """``blob`` itself if it is exactly one genome long; else ValueError."""
        if len(blob) != self.total_bytes:
            raise ValueError(
                f"genome is {len(blob)} bytes; {self.kind} layout with "
                f"{self.slot_count} slots needs {self.total_bytes}"
            )
        return blob


TAGGED = GenomeLayout("tagged")
FITNESS = GenomeLayout("fitness")


@dataclass(frozen=True)
class GenomeFields:
    """Decoded contents of one genome."""

    counter: int
    surface: tuple[int, ...]
    founder_tag: int | None = None
    fitness: float | None = None


@dataclass(frozen=True)
class GenomeColumns:
    """Decoded contents of many genomes, one array per field."""

    counter: np.ndarray  # (n,) int64
    surface: np.ndarray  # (n, slot_count) uint8
    founder_tag: np.ndarray | None = None  # (n,) int64; tagged layout only
    fitness: np.ndarray | None = None  # (n,) float32; fitness layout only

    def to_fields(self) -> list[GenomeFields]:
        none = [None] * len(self.counter)
        tags = none if self.founder_tag is None else self.founder_tag.tolist()
        fits = none if self.fitness is None else self.fitness.tolist()
        return [
            GenomeFields(counter=c, surface=tuple(s), founder_tag=t, fitness=f)
            for c, s, t, f in zip(self.counter.tolist(), self.surface.tolist(), tags, fits)
        ]


def _ints(values) -> np.ndarray:
    """``values`` as int64, or as Python ints where int64 cannot hold them."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _check(layout: GenomeLayout, fields, counter, surface, head) -> None:
    """Raise for the first genome that fails a check, naming its first failure.

    Each genome is checked in one fixed order: counter range, surface
    length, slot values, then the header field's presence and range.
    """
    n, S, w = len(fields), layout.slot_count, layout.differentia_bits
    value_bad = np.asarray((surface < 0) | (surface >= 1 << w), dtype=bool)

    def value_error(i: int) -> ValueError:
        k = int(np.argmax(value_bad[i]))
        return ValueError(f"slot {k} value {fields[i].surface[k]} out of range for {w} bit(s)")

    checks = [
        (
            (counter < 0) | (counter >= layout.counter_capacity),
            lambda i: ValueError(
                f"counter {fields[i].counter} does not fit in {layout.counter_bytes} bytes"
            ),
        ),
        (
            np.full(n, surface.shape[1] != S),
            lambda i: ValueError(f"expected {S} surface values, got {len(fields[i].surface)}"),
        ),
        (value_bad.any(axis=1), value_error),
    ]
    if layout.kind == "tagged":
        missing = np.array([f.founder_tag is None for f in fields], dtype=bool)
        checks += [
            (missing, lambda i: ValueError("tagged layout requires founder_tag")),
            (
                ~missing & ((head < 0) | (head >= 1 << 16)),
                lambda i: ValueError(
                    f"founder_tag {fields[i].founder_tag} does not fit in 16 bits"
                ),
            ),
        ]
    else:
        missing = np.array([f.fitness is None for f in fields], dtype=bool)
        # A finite value that float32 cannot hold; struct.pack("<f") refuses it too.
        with np.errstate(over="ignore"):
            overflow = np.isfinite(head) & np.isinf(head.astype(np.float32))
        checks += [
            (missing, lambda i: ValueError("fitness layout requires fitness")),
            (overflow, lambda i: OverflowError("float too large to pack with f format")),
        ]
    masks = [np.asarray(bad, dtype=bool) for bad, _ in checks]
    first = min((int(np.argmax(bad)) for bad in masks if bad.any()), default=None)
    if first is not None:
        raise next(error(first) for bad, (_, error) in zip(masks, checks) if bad[first])


def _pack_rows(layout: GenomeLayout, fields: Sequence[GenomeFields]) -> np.ndarray:
    n, S, w = len(fields), layout.slot_count, layout.differentia_bits
    out = np.zeros(n, dtype=layout.dtype)
    if not n:
        return out.view(np.uint8).reshape(0, layout.total_bytes)
    counter = _ints([f.counter for f in fields])
    surface = _ints([f.surface for f in fields]).reshape(n, -1)
    if layout.kind == "tagged":
        head = _ints([0 if f.founder_tag is None else f.founder_tag for f in fields])
    else:
        head = np.array([0.0 if f.fitness is None else f.fitness for f in fields])
    _check(layout, fields, counter, surface, head)
    out["head"] = head
    out["counter"] = counter
    # Slot k's value occupies bits [k*w, (k+1)*w) of the little-endian surface.
    bits = (surface[:, :, None] >> np.arange(w)) & 1
    out["surface"] = np.packbits(
        bits.reshape(n, S * w).astype(np.uint8), axis=1, bitorder="little"
    )
    return out.view(np.uint8).reshape(n, layout.total_bytes)


def pack_genomes(layout: GenomeLayout, fields: Sequence[GenomeFields]) -> np.ndarray:
    """Encode many genomes per ``layout``: an (n, total_bytes) uint8 array.

    Strict about ranges and presence: raises for the first genome that
    packing one at a time would reject, with that genome's message.
    """
    S = layout.slot_count
    short = next((i for i, f in enumerate(fields) if len(f.surface) != S), len(fields))
    packed = _pack_rows(layout, fields[:short])
    if short < len(fields):
        _pack_rows(layout, fields[short : short + 1])  # raises for this genome
    return packed


def unpack_genomes(layout: GenomeLayout, data) -> GenomeColumns:
    """Decode back-to-back genomes from ``data``, any bytes-like object
    whose length is a whole number of genomes."""
    rec = np.frombuffer(data, dtype=layout.dtype)
    n, S, w = len(rec), layout.slot_count, layout.differentia_bits
    bits = np.unpackbits(rec["surface"], axis=1, count=S * w, bitorder="little")
    surface = (bits.reshape(n, S, w) << np.arange(w, dtype=np.uint8)).sum(axis=2, dtype=np.uint8)
    tagged = layout.kind == "tagged"
    return GenomeColumns(
        counter=rec["counter"].astype(np.int64),
        surface=surface,
        founder_tag=rec["head"].astype(np.int64) if tagged else None,
        fitness=None if tagged else rec["head"].astype(np.float32),
    )


def pack_genome(layout: GenomeLayout, fields: GenomeFields) -> bytes:
    """Encode ``fields`` per ``layout``; strict about ranges and presence."""
    return pack_genomes(layout, [fields]).tobytes()


def unpack_genome(layout: GenomeLayout, blob: bytes) -> GenomeFields:
    """Decode ``blob`` per ``layout``; length must match exactly."""
    return unpack_genomes(layout, layout.check_length(blob)).to_fields()[0]
