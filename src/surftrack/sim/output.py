"""Run artifact writers and readers: genomes.csv and manifest.json."""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass

from .. import __version__
from ..surface.annotation import RecordSet, SurfaceAnnotation
from ..surface.genome import GenomeLayout, pack_genome, unpack_genome
from .config import GridConfig
from .engine import SampledGenome


class GenomesCsvError(ValueError):
    pass


def genomes_csv_text(layout: GenomeLayout, samples: list[SampledGenome]) -> str:
    """Render sampled genomes as CSV; column set depends on the layout."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    extra = "founder_tag" if layout.kind == "tagged" else "fitness"
    writer.writerow(("pe_x", "pe_y", "genome_hex", "counter", extra))
    for s in samples:
        blob = pack_genome(layout, s.fields)
        tail = s.fields.founder_tag if layout.kind == "tagged" else repr(s.fields.fitness)
        writer.writerow((s.pe_x, s.pe_y, blob.hex(), s.fields.counter, tail))
    return buf.getvalue()


@dataclass(frozen=True)
class GenomeRow:
    """One parsed genomes.csv row, with reconstruction-ready pieces."""

    pe_x: int
    pe_y: int
    label: str
    records: RecordSet
    founder_tag: int | None
    fitness: float | None


def _cell(row: list[str], cols: dict[str, int], rownum: int, name: str, parse):
    """Parse one named field of a genomes.csv row, or fail naming the row and field."""
    try:
        return parse(row[cols[name]].strip())
    except IndexError:
        raise GenomesCsvError(f"row {rownum}, field {name!r}: missing") from None
    except ValueError as err:
        raise GenomesCsvError(f"row {rownum}, field {name!r}: {err}") from None


def read_genomes_csv(
    text: str, layout: GenomeLayout, policy: str
) -> list[GenomeRow]:
    """Decode genomes.csv rows into record sets for reconstruction.

    Labels are derived as pe{x}_{y}_{j}, with j counting rows per PE in
    file order, mirroring how the simulator labels its samples.  The
    redundant counter column must agree with the packed counter.  A
    decode error names the row and the field it failed on.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise GenomesCsvError("row 1: empty file") from None
    cols = {name.strip(): i for i, name in enumerate(header)}
    for required in ("pe_x", "pe_y", "genome_hex", "counter"):
        if required not in cols:
            raise GenomesCsvError(f"row 1: missing required column {required!r}")
    rows: list[GenomeRow] = []
    seen: dict[tuple[int, int], int] = {}
    for rownum, row in enumerate(reader, start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        x = _cell(row, cols, rownum, "pe_x", int)
        y = _cell(row, cols, rownum, "pe_y", int)
        counter = _cell(row, cols, rownum, "counter", int)
        blob = _cell(row, cols, rownum, "genome_hex", bytes.fromhex)
        try:
            fields = unpack_genome(layout, blob)
        except ValueError as err:
            raise GenomesCsvError(f"row {rownum}, field 'genome_hex': {err}") from None
        if fields.counter != counter:
            raise GenomesCsvError(
                f"row {rownum}: counter column says {counter} but genome "
                f"encodes {fields.counter}"
            )
        j = seen.get((x, y), 0)
        seen[(x, y)] = j + 1
        ann = SurfaceAnnotation(
            policy,
            layout.slot_count,
            layout.differentia_bits,
            counter=fields.counter,
            slots=list(fields.surface),
        )
        rows.append(
            GenomeRow(
                pe_x=x,
                pe_y=y,
                label=f"pe{x}_{y}_{j}",
                records=ann.to_records(),
                founder_tag=fields.founder_tag,
                fitness=fields.fitness,
            )
        )
    return rows


def write_manifest(
    path: str,
    config: GridConfig,
    mode: str,
    outputs: dict[str, str],
    duration_seconds: float,
    stats: dict[str, int] | None = None,
) -> None:
    """Atomically write the run manifest next to its outputs.

    ``stats`` is the run's telemetry (cycles, migrant counts); it is
    written as the ``stats`` block when given.
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
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
