"""Tree interchange: Newick strings and ALife-standard CSV.

Newick lengths are origin-time deltas along each edge, and a root's
"length" is its own origin time (the edge from time zero), so a cherry
reconstructed at rank 0 with leaves sampled at generation 10 reads
``(A:10,B:10):0;``.  Forests are written one tree per line.

The CSV dialect follows the ALife community standard: one row per node
with ``id``, ``ancestor_list`` (``[none]`` for roots), ``origin_time``,
plus ``taxon_label`` and ``founder_tag`` columns.  Parsers report the
1-based file row of anything malformed.
"""

from __future__ import annotations

import csv
import io
import math
import re

from ..tables import Table, finite
from .tree import CycleError, PhyloTree


class NewickParseError(ValueError):
    pass


class AlifeCsvError(ValueError):
    pass


_PLAIN_LABEL = re.compile(r"^[A-Za-z0-9_.|+-]+$")
_ANCESTOR = re.compile(r"^\[(none|\d+)\]$")
# Newick's tokens.  A quoted label writes a quote as '' and closes at the
# first quote that no quote follows; a quote that starts no closed label is ``bad``.
_TOKEN = re.compile(
    r"""(?P<space>\s+) | (?P<open>\() | (?P<comma>,) | (?P<close>\))
      | :(?P<length>[\d.+eE-]*)
      | '(?P<quoted>(?:[^']|'')*)'(?!')
      | (?P<bare>[^(),:;'\s]+)
      | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def format_time(x: float) -> str:
    """Render a time compactly: integral values lose the '.0'."""
    f = float(x)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _quote_label(label: str, at: int) -> str:
    if _PLAIN_LABEL.match(label):
        return label
    if len(f"{label}.".splitlines()) > 1:  # the reader splits lines first
        raise ValueError(f"node {at}: label {label!r} has a line break, which ends a Newick tree")
    return "'" + label.replace("'", "''") + "'"


def export_newick(tree: PhyloTree) -> str:
    """Serialize a forest as Newick, one tree per line; a label may hold no line break."""
    parent, time, label = tree.parent, tree.origin_time, tree.label

    def tail(j: int) -> str:
        name = "" if label[j] is None else _quote_label(label[j], j)
        base = time[parent[j]] if parent[j] >= 0 else 0.0
        return name + ":" + format_time(time[j] - base)

    out: list[str] = []
    for i, p in enumerate(parent):
        if p >= 0 and i != p + 1:  # a later child
            out.append(",")
        after = parent[i + 1] if i + 1 < len(parent) else -1
        if after == i:
            out.append("(")
            continue
        out.append(tail(i))
        while p != after:  # close the clades this leaf ends
            out.append(")" + tail(p))
            p = parent[p]
        if after < 0:
            out.append(";\n")
    return "".join(out)


def parse_newick(text: str) -> PhyloTree:
    """Parse one tree per non-blank line into a forest.

    Branch lengths are optional (missing means 0).  Origin times are
    rebuilt by accumulating lengths from each root's own length down;
    only a root's length may be negative.
    """
    tree = PhyloTree([], [], [], [])
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                _parse_tree(line.rstrip(), tree)
            except NewickParseError as err:
                raise NewickParseError(f"line {lineno}: {err}") from None
    return tree


def _parse_tree(s: str, tree: PhyloTree) -> None:
    """Append one tree's nodes, which Newick names in preorder, to ``tree``."""
    if not s.endswith(";"):
        raise NewickParseError("missing trailing ';'")
    parent, time, label, tag = tree.parent, tree.origin_time, tree.label, tree.founder_tag
    first = len(parent)
    length_at: dict[int, int] = {}  # node -> column of its length

    def new(up: int) -> int:
        parent.append(up)
        time.append(0.0)  # edge length until the pass below
        label.append(None)
        tag.append(None)
        return len(parent) - 1

    cur = new(-1)
    stage = 0  # what cur has so far: 0 nothing, 1 a clade, 2 a label, 3 a length
    stack: list[int] = []
    for m in _TOKEN.finditer(s, 0, len(s) - 1):
        kind, col = m.lastgroup, m.start() + 1
        if kind == "open":
            if stage:
                raise NewickParseError(f"'(' after a clade, label or length at column {col}")
            stack.append(cur)
            cur = new(cur)
        elif kind == "comma":
            if not stack:
                raise NewickParseError(f"',' outside parentheses at column {col}")
            cur = new(stack[-1])
            stage = 0
        elif kind == "close":
            if not stack:
                raise NewickParseError(f"unbalanced ')' at column {col}")
            cur = stack.pop()
            stage = 1
        elif kind == "length":
            if stage == 3:
                raise NewickParseError(f"second branch length at column {col}")
            col += 1  # a length is reported at the column after its colon
            try:
                length = float(m["length"])
            except ValueError:
                raise NewickParseError(f"bad branch length at column {col}") from None
            if not math.isfinite(length):
                raise NewickParseError(f"non-finite branch length at column {col}")
            if length < 0 and parent[cur] >= 0:
                raise NewickParseError(f"negative branch length at column {col}")
            time[cur] = length
            length_at[cur] = col
            stage = 3
        elif kind == "bad":
            if m["bad"] == "'":
                raise NewickParseError("unterminated quoted label")
            raise NewickParseError(f"unexpected character {m['bad']!r} at column {col}")
        elif kind != "space":
            if stage >= 2:
                what = "second label" if stage == 2 else "label after a branch length"
                raise NewickParseError(f"{what} at column {col}")
            label[cur] = m["bare"] if kind == "bare" else m["quoted"].replace("''", "'")
            stage = 2
    if stack:
        raise NewickParseError("unbalanced '(': tree ended inside a clade")

    # Each node holds its edge length; accumulate from the root down.
    for k in range(first + 1, len(parent)):
        time[k] += time[parent[k]]
    if max(time[first:]) == math.inf:
        k = time.index(math.inf, first)
        raise NewickParseError(f"origin time overflows at column {length_at[k]}")


def _ancestor(cell: str) -> int | None:
    """An ``ancestor_list`` cell's one ancestor id, None for ``[none]``."""
    m = _ANCESTOR.match(cell)
    if not m:
        raise ValueError(f"must be [none] or [<id>], got {cell!r}")
    return None if m.group(1) == "none" else int(m.group(1))


ALIFE_COLUMNS = ("id", "ancestor_list", "origin_time", "taxon_label", "founder_tag")


def export_alife_csv(tree: PhyloTree) -> str:
    """Serialize a forest as ALife-standard CSV with preorder ids.

    The reader strips each label and reads an empty one as none, and the
    writer leaves a carriage return unquoted, which the reader takes for a
    line end; so a label that is empty, has whitespace at either end or
    holds a carriage return is refused.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ALIFE_COLUMNS)
    columns = zip(tree.parent, tree.origin_time, tree.label, tree.founder_tag)
    for i, (up, origin, label, tag) in enumerate(columns):
        if label is not None and (not label or label.strip() != label or "\r" in label):
            raise ValueError(f"node {i}: label {label!r} would not read back unchanged")
        writer.writerow(
            (
                i,
                "[none]" if up < 0 else f"[{up}]",
                format_time(origin),
                label or "",
                "" if tag is None else tag,
            )
        )
    return buf.getvalue()


def import_alife_csv(text: str) -> PhyloTree:
    """Parse ALife-standard CSV into a forest.

    Rows may come in any order; ids must be unique, ancestors must
    exist, and ancestry must be acyclic.  Errors name the offending
    1-based file row.
    """
    table = Table(text, ("id", "ancestor_list", "origin_time"), AlifeCsvError)
    at: dict[int, int] = {}  # id -> position, in file order
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    for rownum, row in table.rows:
        node_id = table.cell(row, rownum, "id", int)
        if node_id in at:
            raise AlifeCsvError(f"row {rownum}: duplicate id {node_id}")
        up_id = table.cell(row, rownum, "ancestor_list", _ancestor)
        origin = table.cell(row, rownum, "origin_time", finite)
        label = table.cell(row, rownum, "taxon_label", lambda s: s or None, None)
        tag = table.cell(row, rownum, "founder_tag", lambda s: int(s) if s else None, None)
        at[node_id] = len(at)
        for column, value in zip(columns, (rownum, node_id, up_id, origin, label, tag)):
            column.append(value)

    rownums, ids, up_ids, times, labels, tags = columns
    parent: list[int] = []
    for k, pid in enumerate(up_ids):
        if pid is not None and pid not in at:
            raise AlifeCsvError(f"row {rownums[k]}: ancestor {pid} not defined anywhere")
        up = -1 if pid is None else at[pid]
        if up >= 0 and times[k] < times[up]:
            raise AlifeCsvError(
                f"row {rownums[k]}: origin_time {format_time(times[k])} precedes "
                f"its ancestor's {format_time(times[up])}"
            )
        parent.append(up)

    try:
        return PhyloTree.from_parents(parent, times, labels, tags)
    except CycleError as err:  # a component with no [none] row
        row, node_id = rownums[err.node], ids[err.node]
        raise AlifeCsvError(f"row {row}: id {node_id} is on or below an ancestry cycle") from None
