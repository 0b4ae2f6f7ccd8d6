"""Run artifact writers and readers: genomes.csv and manifest.json."""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .. import __version__
from ..surface.annotation import RecordSet, surface_records
from ..surface.genome import GenomeLayout, pack_genomes, unpack_genomes
from ..tables import Table
from .config import GridConfig
from .engine import SampledGenome, sample_labels


class GenomesCsvError(ValueError):
    pass


def genomes_csv_text(layout: GenomeLayout, samples: list[SampledGenome]) -> str:
    """Render sampled genomes as CSV; column set depends on the layout."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    tagged = layout.kind == "tagged"
    extra = "founder_tag" if tagged else "fitness"
    writer.writerow(("pe_x", "pe_y", "genome_hex", "counter", extra))
    text = pack_genomes(layout, [s.fields for s in samples]).tobytes().hex()
    width = 2 * layout.total_bytes
    writer.writerows(
        (
            s.pe_x,
            s.pe_y,
            text[i * width : (i + 1) * width],
            s.fields.counter,
            s.fields.founder_tag if tagged else repr(s.fields.fitness),
        )
        for i, s in enumerate(samples)
    )
    return buf.getvalue()


@dataclass(frozen=True, slots=True)
class GenomeRow:
    """One parsed genomes.csv row, with reconstruction-ready pieces."""

    pe_x: int
    pe_y: int
    label: str
    records: RecordSet
    founder_tag: int | None
    fitness: float | None


def read_genomes_csv(
    text: str, layout: GenomeLayout, policy: str
) -> list[GenomeRow]:
    """Decode genomes.csv rows into record sets for reconstruction.

    Labels come from :func:`~.engine.sample_labels` in file order, as the
    simulator labels its samples.  The redundant counter column must
    agree with the packed counter, and so must the redundant
    ``founder_tag`` or ``fitness`` column, when present, with the packed
    one (fitness compared as float32, a NaN agreeing with a NaN).  A
    decode error names the row and the field it failed on; a negative PE
    coordinate is one (its upper bound needs the grid, which the reader
    is not given).  Every row's fields are parsed first, so a malformed
    field anywhere is reported before a disagreement; then all genomes
    decode in one pass.
    """
    table = Table(text, ("pe_x", "pe_y", "genome_hex", "counter"), GenomesCsvError)

    def genome(cell: str) -> bytes:
        return layout.check_length(bytes.fromhex(cell))

    def coordinate(cell: str) -> int:
        value = int(cell)
        if value < 0:
            raise ValueError(f"negative PE coordinate {value}")
        return value

    tagged = layout.kind == "tagged"
    extra = ("founder_tag", int) if tagged else ("fitness", float)
    fields = (("pe_x", coordinate), ("pe_y", coordinate), ("counter", int), ("genome_hex", genome))
    if extra[0] in table.columns:
        fields += (extra,)
    rownums: list[int] = []
    parsed: list[tuple] = []
    for rownum, row in table.rows:
        rownums.append(rownum)
        parsed.append(tuple(table.cell(row, rownum, *field) for field in fields))
    xs, ys, counters, blobs, *said = zip(*parsed) if parsed else ((),) * len(fields)
    genomes = unpack_genomes(layout, b"".join(blobs))
    for rownum, counter, packed in zip(rownums, counters, genomes.counter.tolist()):
        if packed != counter:
            raise GenomesCsvError(
                f"row {rownum}: counter column says {counter} but genome "
                f"encodes {packed}"
            )
    if said:
        said, packed = said[0], genomes.founder_tag if tagged else genomes.fitness
        if not tagged:
            with np.errstate(over="ignore"):  # a float32 overflow reads inf, and disagrees
                said = np.array(said, dtype=np.float32).tolist()
        for rownum, value, encoded in zip(rownums, said, packed.tolist()):
            if value != encoded and not (value != value and encoded != encoded):
                raise GenomesCsvError(
                    f"row {rownum}, field {extra[0]!r}: column says {value!r} but "
                    f"genome encodes {encoded!r}"
                )
    records = surface_records(policy, layout.slot_count, genomes.counter, genomes.surface)
    none = [None] * len(blobs)
    tags = none if genomes.founder_tag is None else genomes.founder_tag.tolist()
    fits = none if genomes.fitness is None else genomes.fitness.tolist()
    return list(map(GenomeRow, xs, ys, sample_labels(xs, ys), records, tags, fits))


def write_manifest(
    path: str,
    config: GridConfig,
    mode: str,
    outputs: dict[str, str],
    duration_seconds: float,
    stats: dict | None = None,
) -> None:
    """Atomically write the run manifest next to its outputs.

    ``stats`` is the run's telemetry (cycles, migrant counts, the spread
    of the sampled genomes' counters and record counts); it is written
    as the ``stats`` block when given.
    """
    payload = {
        "tool": {"name": "surftrack", "version": __version__},
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "mode": mode,
        "config": config.to_dict(),
        "outputs": outputs,
        "duration_seconds": round(duration_seconds, 3),
    }
    if stats is not None:
        payload["stats"] = stats
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def read_manifest(path: str) -> dict:
    """The JSON object in a manifest or config file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    return payload
