"""The header, row and field rules shared by every CSV reader: genomes.csv,
ALife trees and the metric CSVs that ``compare`` reads."""

from types import SimpleNamespace

import pytest

from surftrack.cli import _metric_values
from surftrack.phylo.serialize import AlifeCsvError, import_alife_csv
from surftrack.sim.config import GridConfig
from surftrack.sim.engine import DeterministicGrid
from surftrack.sim.output import GenomesCsvError, genomes_csv_text, read_genomes_csv


def genomes_reader(tmp_path):
    grid = DeterministicGrid(GridConfig(width=2, height=1, generations=4, population=2))
    grid.run()
    header, *rows = genomes_csv_text(grid.layout, grid.sample_end_state()).splitlines()
    return SimpleNamespace(
        header=header,
        rows=rows,
        read=lambda text: read_genomes_csv(text, grid.layout, grid.config.policy),
        error=GenomesCsvError,
        prefix="",
        dropped="counter",
        short=(",".join(rows[0].split(",")[:3]), "counter"),
    )


def tree_columns(tree):
    return tree.parent, tree.origin_time, tree.label, tree.founder_tag


def alife_reader(tmp_path):
    return SimpleNamespace(
        header="id,ancestor_list,origin_time,taxon_label,founder_tag",
        rows=["0,[none],0,root,", "1,[0],2,leaf,5"],
        read=lambda text: tree_columns(import_alife_csv(text)),
        error=AlifeCsvError,
        prefix="",
        dropped="origin_time",
        short=("2,[0]", "origin_time"),
    )


def metrics_reader(tmp_path):
    path = tmp_path / "m.csv"

    def read(text):
        path.write_text(text)
        return _metric_values(str(path), "sbl")

    return SimpleNamespace(
        header="tree,metric,value",
        rows=["t,sbl,1", "u,sbl,2.5"],
        read=read,
        error=ValueError,
        prefix=f"{path}: ",
        dropped="value",
        short=("v,sbl", "value"),
    )


@pytest.mark.parametrize("make", [genomes_reader, alife_reader, metrics_reader])
def test_every_csv_reader_shares_the_header_row_and_field_rules(tmp_path, make):
    reader = make(tmp_path)

    def refusal(text):
        with pytest.raises(reader.error) as err:
            reader.read(text)
        return str(err.value)

    assert refusal("") == reader.prefix + "row 1: empty file"
    header = ",".join(c for c in reader.header.split(",") if c != reader.dropped)
    assert refusal(header + "\n" + reader.rows[0] + "\n") == (
        f"{reader.prefix}row 1: missing required column {reader.dropped!r}"
    )

    plain = reader.read("\n".join([reader.header, *reader.rows]) + "\n")
    padded = "\n".join([reader.header, "", reader.rows[0], "  , ,", " ", reader.rows[1]])
    assert reader.read(padded + "\n") == plain

    short, field = reader.short
    text = "\n".join([reader.header, reader.rows[0], "", short, reader.rows[1]]) + "\n"
    assert refusal(text) == f"{reader.prefix}row 4, field {field!r}: missing"


def test_alife_rows_that_stop_before_the_optional_columns_read_as_no_label_and_no_tag():
    tree = import_alife_csv("id,ancestor_list,origin_time,taxon_label,founder_tag\n0,[none],0\n")
    assert (tree.label, tree.founder_tag) == ([None], [None])
