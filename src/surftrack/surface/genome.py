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

:func:`pack_genomes` checks one genome at a time, each in the same fixed
order, so the first bad genome is reported with its first failure.
Once every genome is known to be in range, packing runs once for all
of them in one numpy pass, and :func:`unpack_genomes` decodes all of
them in one pass too.  The scalar :func:`pack_genome` and
:func:`unpack_genome` are one-genome calls of the same code.

A slot value is at most 8 bits wide, so a decoded surface is ``bytes``,
one byte per slot: :meth:`GenomeColumns.to_fields` slices every genome's
surface from one copy of the surface array, and :func:`pack_genomes`
reads all surfaces back through one join.
"""

from __future__ import annotations

import struct
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


def byte_row(values) -> bytes:
    """``values`` as ``bytes``, one byte per value, when every value is an
    int in 0..255; otherwise ``values`` as given.

    The values are iterated, so a buffer such as an int64 array is read
    value by value, not as its raw memory.
    """
    if type(values) is bytes:
        return values
    try:
        return bytes(iter(values))
    except (TypeError, ValueError):
        return values


@dataclass(frozen=True, slots=True)
class GenomeFields:
    """Decoded contents of one genome.

    ``surface`` holds one value per slot as ``bytes``: a tuple or a list
    of ints in 0..255 is stored as ``bytes``, so it compares equal to the
    decoded genome.  Values out of byte range stay as given, for
    :func:`pack_genomes` to refuse with its usual message.
    """

    counter: int
    surface: bytes
    founder_tag: int | None = None
    fitness: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "surface", byte_row(self.surface))


@dataclass(frozen=True)
class GenomeColumns:
    """Decoded contents of many genomes, one array per field."""

    counter: np.ndarray  # (n,) int64
    surface: np.ndarray  # (n, slot_count) uint8
    founder_tag: np.ndarray | None = None  # (n,) int64; tagged layout only
    fitness: np.ndarray | None = None  # (n,) float32; fitness layout only

    def to_fields(self) -> list[GenomeFields]:
        """One :class:`GenomeFields` per genome, each surface a slice of
        one ``bytes`` copy of the surface array."""
        n, S = self.surface.shape
        none = [None] * n
        tags = none if self.founder_tag is None else self.founder_tag.tolist()
        fits = none if self.fitness is None else self.fitness.tolist()
        flat = self.surface.tobytes()
        surfaces = [flat[i : i + S] for i in range(0, n * S, S)]
        return list(map(GenomeFields, self.counter.tolist(), surfaces, tags, fits))


def _validate(layout: GenomeLayout, f: GenomeFields) -> None:
    """Raise for the first check ``f`` fails, in order: counter range,
    surface length, slot values, then the header field's presence and range."""
    S, w = layout.slot_count, layout.differentia_bits
    if not 0 <= f.counter < layout.counter_capacity:
        raise ValueError(f"counter {f.counter} does not fit in {layout.counter_bytes} bytes")
    if len(f.surface) != S:
        raise ValueError(f"expected {S} surface values, got {len(f.surface)}")
    if not 0 <= min(f.surface) <= max(f.surface) < 1 << w:
        k, v = next((k, v) for k, v in enumerate(f.surface) if not 0 <= v < 1 << w)
        raise ValueError(f"slot {k} value {v} out of range for {w} bit(s)")
    if layout.kind == "tagged":
        if f.founder_tag is None:
            raise ValueError("tagged layout requires founder_tag")
        if not 0 <= f.founder_tag < 1 << 16:
            raise ValueError(f"founder_tag {f.founder_tag} does not fit in 16 bits")
    elif f.fitness is None:
        raise ValueError("fitness layout requires fitness")
    else:
        struct.pack("<f", f.fitness)  # OverflowError if float32 cannot hold it


def pack_genomes(layout: GenomeLayout, fields: Sequence[GenomeFields]) -> np.ndarray:
    """Encode many genomes per ``layout``: an (n, total_bytes) uint8 array.

    Strict about ranges and presence: raises for the first genome that
    fails a check, with that genome's message.
    """
    for f in fields:
        _validate(layout, f)
    n, S, w = len(fields), layout.slot_count, layout.differentia_bits
    out = np.zeros(n, dtype=layout.dtype)
    tagged = layout.kind == "tagged"
    out["head"] = [f.founder_tag if tagged else f.fitness for f in fields]
    out["counter"] = [f.counter for f in fields]
    # Every surface passed its range check, so GenomeFields holds it as bytes.
    surface = np.frombuffer(b"".join([f.surface for f in fields]), np.uint8).reshape(n, S)
    # Slot k's value occupies bits [k*w, (k+1)*w) of the little-endian surface.
    bits = (surface[:, :, None] >> np.arange(w, dtype=np.uint8)) & 1
    out["surface"] = np.packbits(bits.reshape(n, S * w), axis=1, bitorder="little")
    return out.view(np.uint8).reshape(n, layout.total_bytes)


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
