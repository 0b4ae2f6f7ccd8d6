"""CSV inputs: the header, row and field rules every table reader shares.

A file's first row is its header; blank and whitespace-only rows are
skipped; a cell is stripped before it is parsed.  Errors are raised as
the reader's own class with one of three messages: ``row 1: empty
file``, ``row 1: missing required column 'x'`` or ``row N, field 'x':
<reason>``, N counting file rows from 1.
"""

from __future__ import annotations

import csv
import io
import math


class Table:
    """A CSV text's header columns and its numbered non-blank rows."""

    def __init__(self, text: str, required: tuple[str, ...], error: type[ValueError]) -> None:
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None:
            raise error("row 1: empty file")
        self.columns = {name.strip(): i for i, name in enumerate(header)}
        for name in required:
            if name not in self.columns:
                raise error(f"row 1: missing required column {name!r}")
        self.error = error
        self.rows = ((n, row) for n, row in enumerate(reader, start=2) if "".join(row).strip())

    def cell(self, row: list[str], rownum: int, name: str, parse, *default):
        """``parse`` of the row's stripped ``name`` cell.  A cell the row
        stops before is missing, an error, unless a ``default`` is given;
        then it, or a column the header lacks, reads as the default."""
        try:
            cell = row[self.columns[name]]
        except (IndexError, KeyError):
            if default:
                return default[0]
            raise self.error(f"row {rownum}, field {name!r}: missing") from None
        try:
            return parse(cell.strip())
        except ValueError as err:
            raise self.error(f"row {rownum}, field {name!r}: {err}") from None


def finite(cell: str) -> float:
    """A cell's float value, refusing nan and infinities."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {cell!r}")
    return value
