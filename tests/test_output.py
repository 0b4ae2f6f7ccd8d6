"""Run artifacts: genomes.csv encoding/decoding and the manifest."""

import dataclasses
import json

import numpy as np
import pytest

from surftrack.sim.config import GridConfig
from surftrack.sim.engine import DeterministicGrid
from surftrack.sim.output import (
    GenomesCsvError,
    genomes_csv_text,
    read_genomes_csv,
    read_manifest,
    write_manifest,
)
from surftrack.surface.annotation import SurfaceAnnotation


def simulate(**overrides):
    base = dict(width=2, height=2, generations=30, population=8, seed=1)
    base.update(overrides)
    cfg = GridConfig(**base)
    eng = DeterministicGrid(cfg)
    eng.run()
    return cfg, eng


def test_round_trip_recovers_every_field():
    cfg, eng = simulate(sample_per_pe=3)
    samples = eng.sample_end_state()
    text = genomes_csv_text(eng.layout, samples)
    rows = read_genomes_csv(text, eng.layout, cfg.policy)
    assert len(rows) == len(samples)
    for row, sample in zip(rows, samples):
        assert (row.pe_x, row.pe_y) == (sample.pe_x, sample.pe_y)
        assert row.label == sample.label
        assert row.founder_tag == sample.fields.founder_tag
        assert row.records.counter == sample.fields.counter
        # record values must match a direct read of the surface
        ann = SurfaceAnnotation(
            cfg.policy,
            cfg.slot_count,
            cfg.differentia_bits,
            counter=sample.fields.counter,
            slots=list(sample.fields.surface),
        )
        assert row.records == ann.to_records()


def test_end_state_objects_are_frozen_and_carry_no_instance_dict():
    cfg, eng = simulate(track_perfect=True)
    samples = eng.sample_end_state()
    rows = read_genomes_csv(genomes_csv_text(eng.layout, samples), eng.layout, cfg.policy)
    for obj in (samples[0], samples[0].fields, rows[0], rows[0].records):
        assert not hasattr(obj, "__dict__")
        field = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))


def test_fitness_layout_round_trip():
    cfg, eng = simulate(layout="fitness", policy="steady", differentia_bits=8, sample_per_pe=2)
    samples = eng.sample_end_state()
    text = genomes_csv_text(eng.layout, samples)
    assert text.splitlines()[0] == "pe_x,pe_y,genome_hex,counter,fitness"
    rows = read_genomes_csv(text, eng.layout, cfg.policy)
    for row, sample in zip(rows, samples):
        assert row.fitness == sample.fields.fitness
        assert row.founder_tag is None


def test_tagged_header_names_the_tag_column():
    cfg, eng = simulate()
    text = genomes_csv_text(eng.layout, eng.sample_end_state())
    assert text.splitlines()[0] == "pe_x,pe_y,genome_hex,counter,founder_tag"


def test_labels_count_rows_per_pe_in_file_order():
    cfg, eng = simulate(sample_per_pe=2)
    samples = eng.sample_end_state()
    rows = read_genomes_csv(genomes_csv_text(eng.layout, samples), eng.layout, cfg.policy)
    assert [r.label for r in rows] == [
        f"pe{x}_{y}_{j}" for y in range(2) for x in range(2) for j in range(2)
    ]


def test_counter_column_must_agree_with_the_packed_genome():
    cfg, eng = simulate()
    text = genomes_csv_text(eng.layout, eng.sample_end_state())
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[3] = str(int(cells[3]) + 1)
    tampered = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    with pytest.raises(GenomesCsvError, match="row 2: counter column says"):
        read_genomes_csv(tampered, eng.layout, cfg.policy)
    # A malformed field in a later row is reported before the counter disagreement.
    later = lines[3].split(",")
    later[0] = "x"
    tampered = "\n".join([lines[0], ",".join(cells), lines[2], ",".join(later), *lines[4:]])
    with pytest.raises(GenomesCsvError, match="^row 4, field 'pe_x': "):
        read_genomes_csv(tampered + "\n", eng.layout, cfg.policy)


def tamper(text: str, row: int, column: int, cell: str) -> str:
    """``text`` with one cell replaced: ``row`` counts from the header as 1."""
    lines = text.splitlines()
    cells = lines[row - 1].split(",")
    cells[column] = cell
    lines[row - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "layout,cell,fragment",
    [
        ("tagged", "{tag_plus_one}", "column says"),
        ("tagged", "x", "invalid literal"),
        ("tagged", "", "invalid literal"),
        ("fitness", "banana", "could not convert"),
        ("fitness", "{fit_plus_one}", "column says"),
        ("fitness", "nan", "column says nan"),
        ("fitness", "1e300", "column says inf"),  # overflows float32
    ],
)
def test_the_tag_or_fitness_column_must_agree_with_the_packed_genome(layout, cell, fragment):
    cfg, eng = simulate(layout=layout)
    samples = eng.sample_end_state()
    text = genomes_csv_text(eng.layout, samples)
    fields = samples[1].fields
    cell = cell.format(
        tag_plus_one=(fields.founder_tag or 0) + 1, fit_plus_one=(fields.fitness or 0.0) + 1.0
    )
    name = "founder_tag" if layout == "tagged" else "fitness"
    with pytest.raises(GenomesCsvError, match=f"^row 3, field '{name}': .*{fragment}"):
        read_genomes_csv(tamper(text, 3, 4, cell), eng.layout, cfg.policy)


def test_fitness_agrees_as_float32_and_a_nan_agrees_with_a_nan():
    cfg, eng = simulate(layout="fitness")
    samples = eng.sample_end_state()
    for j, fitness in ((0, float("nan")), (1, 0.75)):
        fields = dataclasses.replace(samples[j].fields, fitness=fitness)
        samples[j] = dataclasses.replace(samples[j], fields=fields)
    text = genomes_csv_text(eng.layout, samples)
    assert text.splitlines()[1].endswith(",nan")
    rows = read_genomes_csv(text, eng.layout, cfg.policy)
    assert np.isnan(rows[0].fitness)
    # A decimal that rounds to the packed float32 agrees with it.
    rows = read_genomes_csv(tamper(text, 3, 4, "0.7500000001"), eng.layout, cfg.policy)
    assert rows[1].fitness == 0.75


def test_a_file_without_the_tag_or_fitness_column_still_decodes():
    for layout in ("tagged", "fitness"):
        cfg, eng = simulate(layout=layout)
        samples = eng.sample_end_state()
        text = genomes_csv_text(eng.layout, samples)
        bare = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines()) + "\n"
        full = read_genomes_csv(text, eng.layout, cfg.policy)
        assert read_genomes_csv(bare, eng.layout, cfg.policy) == full


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "row 1: empty file"),
        ("pe_x,pe_y,counter\n", "missing required column 'genome_hex'"),
        (
            "pe_x,pe_y,genome_hex,counter\n0,0,zz,0\n",
            "row 2",
        ),
        (
            "pe_x,pe_y,genome_hex,counter\n0,0,ab,0\n",
            "row 2",
        ),
    ],
)
def test_malformed_rows_name_their_row(text, fragment):
    layout = GridConfig(width=1, height=1, generations=1).genome_layout()
    with pytest.raises(GenomesCsvError, match=fragment):
        read_genomes_csv(text, layout, "tilted")


@pytest.mark.parametrize(
    "bad,field",
    [
        ("x,0,{hex},{counter}", "pe_x"),
        ("0,,{hex},{counter}", "pe_y"),
        ("-7,0,{hex},{counter}", "pe_x"),  # negative PE coordinates
        ("0,-1,{hex},{counter}", "pe_y"),
        ("0,0,{hex},1.5", "counter"),
        ("0,0,{hex}", "counter"),  # a short row
        ("0,0,zz,{counter}", "genome_hex"),
        ("0,0,ab,{counter}", "genome_hex"),  # hex, but not a genome
    ],
)
def test_decode_errors_name_the_row_and_the_field(bad, field):
    cfg, eng = simulate()
    header, good = genomes_csv_text(eng.layout, eng.sample_end_state()).splitlines()[:2]
    cells = good.split(",")
    text = "\n".join([header, good, bad.format(hex=cells[2], counter=cells[3])]) + "\n"
    with pytest.raises(GenomesCsvError, match=f"^row 3, field '{field}': "):
        read_genomes_csv(text, eng.layout, cfg.policy)


def test_blank_lines_are_skipped():
    cfg, eng = simulate()
    text = genomes_csv_text(eng.layout, eng.sample_end_state())
    padded = text.replace("\n", "\n\n", 1)
    rows = read_genomes_csv(padded, eng.layout, cfg.policy)
    assert len(rows) == 4


def test_manifest_round_trip(tmp_path):
    cfg = GridConfig(width=2, height=2, generations=30, population=8, seed=1)
    path = str(tmp_path / "manifest.json")
    write_manifest(
        path,
        cfg,
        mode="deterministic",
        outputs={"genomes": "genomes.csv"},
        duration_seconds=1.23456,
    )
    data = read_manifest(path)
    assert data["mode"] == "deterministic"
    assert data["outputs"] == {"genomes": "genomes.csv"}
    assert data["duration_seconds"] == 1.235
    assert GridConfig.from_dict(data["config"]) == cfg
    assert not (tmp_path / "manifest.json.tmp").exists()


def test_manifest_is_valid_json_text(tmp_path):
    cfg = GridConfig(width=1, height=1, generations=5)
    path = str(tmp_path / "m.json")
    write_manifest(path, cfg, "threaded", {}, 0.0)
    raw = (tmp_path / "m.json").read_text()
    assert raw.endswith("\n")
    assert json.loads(raw)["config"]["width"] == 1
